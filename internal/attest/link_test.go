package attest

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"math/big"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"revelio/internal/amdsp"
	"revelio/internal/kds"
	"revelio/internal/measure"
	"revelio/internal/sev"
)

// chipReport mints one more chip under the rig's manufacturer, launches a
// guest on it and returns a report from it — a node joining.
func (r *rig) chipReport(t *testing.T, seed string) *sev.Report {
	t.Helper()
	_, rep := mintChip(t, r.mfr, seed)
	return rep
}

func mintChip(t testing.TB, mfr *amdsp.Manufacturer, seed string) (*amdsp.SecureProcessor, *sev.Report) {
	t.Helper()
	sp, err := mfr.MintProcessor([]byte(seed), 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := launchGuest(t, sp).Report(sev.ReportData{0x11})
	if err != nil {
		t.Fatal(err)
	}
	return sp, rep
}

func launchGuest(t testing.TB, sp *amdsp.SecureProcessor) *amdsp.GuestChannel {
	t.Helper()
	h := sp.LaunchStart(0, 0)
	if err := sp.LaunchUpdate(h, measure.PageNormal, 0, []byte("fw"), "ovmf"); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.LaunchFinish(h); err != nil {
		t.Fatal(err)
	}
	guest, err := sp.GuestChannel(h)
	if err != nil {
		t.Fatal(err)
	}
	return guest
}

// chipKey returns chip's VCEK public key, out of the certificate its
// manufacturer issues for it.
func chipKey(t *testing.T, mfr *amdsp.Manufacturer, chip *amdsp.SecureProcessor) *ecdsa.PublicKey {
	t.Helper()
	der, err := mfr.VCEKCertDER(chip.ChipID(), chip.TCB())
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	return cert.PublicKey.(*ecdsa.PublicKey)
}

// TestChainLinkProvenOncePerChain: the first chip pays the whole
// VCEK→ASK→ARK walk, every later chip one link, a fresh report under a
// known VCEK none, a repeated report nothing at all — and Stats says so.
func TestChainLinkProvenOncePerChain(t *testing.T) {
	r := newRig(t)
	v := NewVerifier(r.client, nil)
	ctx := context.Background()

	first := r.report(t, sev.ReportData{1})
	if _, err := v.VerifyReport(ctx, first); err != nil {
		t.Fatal(err)
	}
	if got, want := v.Stats(), (Stats{ReportsVerified: 1, ChainLinksVerified: 2, KeysPrepared: 1}); got != want {
		t.Fatalf("first chip: %+v, want %+v", got, want)
	}
	for _, seed := range []string{"chip-b", "chip-c"} {
		if _, err := v.VerifyReport(ctx, r.chipReport(t, seed)); err != nil {
			t.Fatalf("%s: %v", seed, err)
		}
	}
	if got, want := v.Stats(), (Stats{ReportsVerified: 3, ChainLinksVerified: 4, LinkHits: 2, KeysPrepared: 3}); got != want {
		t.Fatalf("two more chips: %+v, want %+v", got, want)
	}
	if _, err := v.VerifyReport(ctx, r.report(t, sev.ReportData{2})); err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyReport(ctx, first); err != nil {
		t.Fatal(err)
	}
	want := Stats{ReportsVerified: 4, ChainLinksVerified: 4, LinkHits: 2, ChainHits: 1, ReportHits: 1, KeysPrepared: 3}
	if got := v.Stats(); got != want {
		t.Errorf("fresh + repeated report: %+v, want %+v", got, want)
	}

	// Without proof caches every chip walks the whole chain.
	cold := NewVerifier(r.client, nil, WithoutReportCache())
	for _, seed := range []string{"chip-b", "chip-c"} {
		if _, err := cold.VerifyReport(ctx, r.chipReport(t, seed)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := cold.Stats(), (Stats{ReportsVerified: 2, ChainLinksVerified: 4, KeysPrepared: 2}); got != want {
		t.Errorf("uncached verifier: %+v, want %+v", got, want)
	}
}

// TestChainLinkProofDroppedByInvalidatePolicy: a policy-revision bump
// takes the link proof with every other proof — the next new chip walks
// the whole chain again.
func TestChainLinkProofDroppedByInvalidatePolicy(t *testing.T) {
	r := newRig(t)
	v := NewVerifier(r.client, nil)
	ctx := context.Background()
	if _, err := v.VerifyReport(ctx, r.report(t, sev.ReportData{1})); err != nil {
		t.Fatal(err)
	}
	v.InvalidatePolicy()
	if _, err := v.VerifyReport(ctx, r.chipReport(t, "chip-b")); err != nil {
		t.Fatal(err)
	}
	if got, want := v.Stats(), (Stats{ReportsVerified: 2, ChainLinksVerified: 4, KeysPrepared: 2}); got != want {
		t.Errorf("after InvalidatePolicy: %+v, want %+v (no link hit)", got, want)
	}
}

// pki is a hand-built ARK→ASK→VCEK hierarchy over real chips' VCEK keys,
// served as a CertSource: the tests pick every certificate's signer and
// validity, which the simulated manufacturer fixes.
type pki struct {
	t        *testing.T
	notBef   time.Time
	arkKey   *ecdsa.PrivateKey
	mu       sync.Mutex
	ark, ask *x509.Certificate
	vceks    map[sev.ChipID]*x509.Certificate
}

var _ CertSource = (*pki)(nil)

func (p *pki) VCEK(_ context.Context, chip sev.ChipID, _ uint64) (*x509.Certificate, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.vceks[chip]; ok {
		return c, nil
	}
	return nil, errors.New("pki: unknown chip")
}

func (p *pki) CertChain(context.Context) (*x509.Certificate, *x509.Certificate, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ask, p.ark, nil
}

func (p *pki) serve(ask, ark *x509.Certificate) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ask, p.ark = ask, ark
}

// ca issues a CA certificate for a fresh P-384 key; a nil parent makes it
// self-signed.
func (p *pki) ca(cn string, parent *x509.Certificate, parentKey *ecdsa.PrivateKey, notAfter time.Time) (*x509.Certificate, *ecdsa.PrivateKey) {
	p.t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P384(), rand.Reader)
	if err != nil {
		p.t.Fatal(err)
	}
	return p.caFor(cn, key, parent, parentKey, notAfter), key
}

// caFor issues a CA certificate for key: again, with another validity, is
// a renewal.
func (p *pki) caFor(cn string, key *ecdsa.PrivateKey, parent *x509.Certificate, parentKey *ecdsa.PrivateKey, notAfter time.Time) *x509.Certificate {
	p.t.Helper()
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(time.Now().UnixNano()),
		Subject:               pkix.Name{CommonName: cn},
		NotBefore:             p.notBef,
		NotAfter:              notAfter,
		IsCA:                  true,
		BasicConstraintsValid: true,
		KeyUsage:              x509.KeyUsageCertSign,
	}
	if parent == nil {
		parent, parentKey = tmpl, key
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, parent, &key.PublicKey, parentKey)
	if err != nil {
		p.t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		p.t.Fatal(err)
	}
	return cert
}

// endorse issues a VCEK certificate for chip under the given ASK, over pub
// (chipKey(chip), unless the test wants the certificate to lie), and
// serves it from now on.
func (p *pki) endorse(chip *amdsp.SecureProcessor, pub any, ask *x509.Certificate, askKey *ecdsa.PrivateKey, notAfter time.Time) *x509.Certificate {
	p.t.Helper()
	tmpl := &x509.Certificate{
		SerialNumber:    big.NewInt(time.Now().UnixNano()),
		Subject:         pkix.Name{CommonName: "VCEK-TEST"},
		NotBefore:       p.notBef,
		NotAfter:        notAfter,
		KeyUsage:        x509.KeyUsageDigitalSignature,
		ExtraExtensions: sev.VCEKExtensions(chip.ChipID(), chip.TCB()),
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ask, pub, askKey)
	if err != nil {
		p.t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		p.t.Fatal(err)
	}
	p.serveVCEK(chip.ChipID(), cert)
	return cert
}

// serveVCEK makes cert, or whatever the test made of it, the VCEK the
// source answers with for chip.
func (p *pki) serveVCEK(chip sev.ChipID, cert *x509.Certificate) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.vceks[chip] = cert
}

func newPKI(t *testing.T, arkNotAfter time.Time) *pki {
	t.Helper()
	p := &pki{t: t, notBef: time.Now().Add(-time.Hour), vceks: map[sev.ChipID]*x509.Certificate{}}
	p.ark, p.arkKey = p.ca("ARK-TEST", nil, nil, arkNotAfter)
	return p
}

// TestChainLinkProofExpiresWithEarlierOfASKAndARK: the link proof lives
// only while *both* certificates of the link are valid. The ARK case is
// the one a missing fence would get wrong — anchored at a still-valid ASK,
// a walk past the ARK's expiry would succeed where the whole walk fails.
func TestChainLinkProofExpiresWithEarlierOfASKAndARK(t *testing.T) {
	mfr, err := amdsp.NewManufacturer([]byte("link-expiry"))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	soon, far := start.Add(time.Hour), start.Add(10*365*24*time.Hour)
	for _, tt := range []struct {
		name             string
		arkNotAfter, ask time.Time
	}{
		{"ARK expires first", soon, far},
		{"ASK expires first", far, soon},
	} {
		t.Run(tt.name, func(t *testing.T) {
			p := newPKI(t, tt.arkNotAfter)
			ask, askKey := p.ca("ASK-TEST", p.ark, p.arkKey, tt.ask)
			p.serve(ask, p.ark)
			chipA, repA := mintChip(t, mfr, tt.name+"/a")
			chipB, repB := mintChip(t, mfr, tt.name+"/b")
			chipC, repC := mintChip(t, mfr, tt.name+"/c")
			for _, chip := range []*amdsp.SecureProcessor{chipA, chipB, chipC} {
				p.endorse(chip, chipKey(t, mfr, chip), ask, askKey, far)
			}

			var skew atomic.Int64
			v := NewVerifier(p, nil, WithClock(func() time.Time { return start.Add(time.Duration(skew.Load())) }))
			ctx := context.Background()
			if _, err := v.VerifyReport(ctx, repA); err != nil {
				t.Fatal(err)
			}
			if _, err := v.VerifyReport(ctx, repB); err != nil {
				t.Fatal(err)
			}
			if got := v.Stats(); got.LinkHits != 1 || got.ChainLinksVerified != 3 {
				t.Fatalf("inside validity: %+v, want the second chip anchored at the ASK", got)
			}

			skew.Store(int64(2 * time.Hour)) // past the earlier NotAfter, inside every other
			if _, err := v.VerifyReport(ctx, repC); !errors.Is(err, ErrEvidenceExpired) {
				t.Errorf("new chip past the link's expiry: err = %v, want ErrEvidenceExpired", err)
			}
			// The proofs that rest on the link died with it.
			if _, err := v.VerifyReport(ctx, repA); !errors.Is(err, ErrEvidenceExpired) {
				t.Errorf("proven report past the link's expiry: err = %v, want ErrEvidenceExpired", err)
			}
			if got := v.Stats(); got.LinkHits != 1 {
				t.Errorf("link proof served past its expiry: %+v", got)
			}

			skew.Store(0) // the same evidence verifies again once the clock is back
			if _, err := v.VerifyReport(ctx, repC); err != nil {
				t.Errorf("after restoring the clock: %v", err)
			}
		})
	}
}

// TestChainLinkProofIsForOneASKAndARK: the proof is keyed by the exact
// certificates. A rotated ASK walks its own whole chain; a forged ASK is
// rejected whether the attacker swaps the served chain or only the VCEK —
// all while the genuine link proof sits in the cache and keeps serving.
func TestChainLinkProofIsForOneASKAndARK(t *testing.T) {
	mfr, err := amdsp.NewManufacturer([]byte("link-identity"))
	if err != nil {
		t.Fatal(err)
	}
	far := time.Now().Add(10 * 365 * 24 * time.Hour)
	p := newPKI(t, far)
	ask, askKey := p.ca("ASK-TEST", p.ark, p.arkKey, far)
	rotated, rotatedKey := p.ca("ASK-TEST", p.ark, p.arkKey, far)
	forged, forgedKey := p.ca("ASK-TEST", nil, nil, far) // same name, not signed by the ARK
	p.serve(ask, p.ark)

	v := NewVerifier(p, nil)
	ctx := context.Background()
	verify := func(seed string, vcekASK *x509.Certificate, vcekKey *ecdsa.PrivateKey) error {
		chip, rep := mintChip(t, mfr, seed)
		p.endorse(chip, chipKey(t, mfr, chip), vcekASK, vcekKey, far)
		_, err := v.VerifyReport(ctx, rep)
		return err
	}

	if err := verify("genuine-1", ask, askKey); err != nil {
		t.Fatal(err)
	}
	if err := verify("genuine-2", ask, askKey); err != nil {
		t.Fatal(err)
	}
	base := v.Stats()
	if base.LinkHits != 1 {
		t.Fatalf("link not proven: %+v", base)
	}

	// Only the VCEK is forged: the walk anchors at the genuine ASK and the
	// forged ASK's signature does not verify under it.
	if err := verify("forged-vcek", forged, forgedKey); !errors.Is(err, ErrChainInvalid) {
		t.Errorf("VCEK signed by a forged ASK: err = %v, want ErrChainInvalid", err)
	}
	// The served chain is forged too: another DER, so a miss and a whole
	// walk, which finds the forged ASK does not chain to the ARK.
	p.serve(forged, p.ark)
	if err := verify("forged-chain", forged, forgedKey); !errors.Is(err, ErrChainInvalid) {
		t.Errorf("forged ASK served in the chain: err = %v, want ErrChainInvalid", err)
	}
	if got := v.Stats(); got.ChainLinksVerified != base.ChainLinksVerified || got.ReportsVerified != base.ReportsVerified {
		t.Errorf("a forged chain verified something: %+v -> %+v", base, got)
	}
	// A failed walk proves nothing: the forged pair is still a miss.
	if err := verify("forged-again", forged, forgedKey); !errors.Is(err, ErrChainInvalid) {
		t.Errorf("forged ASK, second attempt: err = %v, want ErrChainInvalid", err)
	}

	// A legitimately rotated ASK misses the old proof and earns its own.
	p.serve(rotated, p.ark)
	if err := verify("rotated-1", rotated, rotatedKey); err != nil {
		t.Fatalf("rotated ASK: %v", err)
	}
	if got := v.Stats(); got.ChainLinksVerified != base.ChainLinksVerified+2 || got.LinkHits != base.LinkHits+1 {
		t.Errorf("rotated ASK: %+v -> %+v, want one whole walk; the one link hit is forged-vcek's", base, got)
	}
	if err := verify("rotated-2", rotated, rotatedKey); err != nil {
		t.Fatal(err)
	}
	// The genuine link proof was there throughout.
	p.serve(ask, p.ark)
	if err := verify("genuine-3", ask, askKey); err != nil {
		t.Fatal(err)
	}
	if got := v.Stats(); got.LinkHits != base.LinkHits+3 || got.ChainLinksVerified != base.ChainLinksVerified+4 {
		t.Errorf("after rotation and return: %+v -> %+v", base, got)
	}
}

// TestChainWalkCachesNothingWhenKDSFailsMidWalk: the VCEK arrives, then
// the cert_chain fetch hangs until the caller gives up. Nothing of the
// half-finished walk is kept; the retry walks the whole chain.
func TestChainWalkCachesNothingWhenKDSFailsMidWalk(t *testing.T) {
	mfr, err := amdsp.NewManufacturer([]byte("link-outage"))
	if err != nil {
		t.Fatal(err)
	}
	_, rep := mintChip(t, mfr, "chip")
	var block atomic.Bool
	var stalled atomic.Int64
	inner := kds.NewServer(mfr)
	server := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if block.Load() && r.URL.Path == kds.CertChainPath {
			stalled.Add(1)
			<-r.Context().Done()
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(server.Close)
	client := kds.NewClient(server.URL, nil)
	client.SetCaching(true)
	v := NewVerifier(client, nil)

	block.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := v.VerifyReport(ctx, rep)
		done <- err
	}()
	for stalled.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("walk cut by cancellation: err = %v, want context.Canceled", err)
	}
	if n := v.chains.Len() + v.reports.Len(); n != 0 {
		t.Errorf("%d proofs cached by a walk that never finished", n)
	}

	block.Store(false)
	if _, err := v.VerifyReport(context.Background(), rep); err != nil {
		t.Fatalf("retry after the outage: %v", err)
	}
	if got, want := v.Stats(), (Stats{ReportsVerified: 1, ChainLinksVerified: 2, KeysPrepared: 1}); got != want {
		t.Errorf("retry: %+v, want %+v", got, want)
	}
}
