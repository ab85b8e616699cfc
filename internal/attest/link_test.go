package attest

import (
	"bytes"
	"context"
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
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

// TestChainLinkProvenOncePerChain: the ASK→ARK link is checked once per
// process, so every chip — the first one too — pays one link, its VCEK's;
// a fresh report under a known VCEK none, a repeated report nothing at
// all — and Stats says so.
func TestChainLinkProvenOncePerChain(t *testing.T) {
	r := newRig(t)
	v := NewVerifier(r.client, nil)
	ctx := context.Background()

	first := r.report(t, sev.ReportData{1})
	if _, err := v.VerifyReport(ctx, first); err != nil {
		t.Fatal(err)
	}
	if got, want := v.Stats(), (Stats{ReportsVerified: 1, ChainLinksVerified: 1, KeysPrepared: 1}); got != want {
		t.Fatalf("first chip: %+v, want %+v", got, want)
	}
	for _, seed := range []string{"chip-b", "chip-c"} {
		if _, err := v.VerifyReport(ctx, r.chipReport(t, seed)); err != nil {
			t.Fatalf("%s: %v", seed, err)
		}
	}
	if got, want := v.Stats(), (Stats{ReportsVerified: 3, ChainLinksVerified: 3, KeysPrepared: 3}); got != want {
		t.Fatalf("two more chips: %+v, want %+v", got, want)
	}
	if _, err := v.VerifyReport(ctx, r.report(t, sev.ReportData{2})); err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyReport(ctx, first); err != nil {
		t.Fatal(err)
	}
	want := Stats{ReportsVerified: 4, ChainLinksVerified: 3, ChainHits: 1, ReportHits: 1, KeysPrepared: 3}
	if got := v.Stats(); got != want {
		t.Errorf("fresh + repeated report: %+v, want %+v", got, want)
	}

	// Without proof caches every report walks its VCEK's link.
	cold := NewVerifier(r.client, nil, WithoutReportCache())
	for _, seed := range []string{"chip-b", "chip-c"} {
		if _, err := cold.VerifyReport(ctx, r.chipReport(t, seed)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := cold.Stats(), (Stats{ReportsVerified: 2, ChainLinksVerified: 2, KeysPrepared: 2}); got != want {
		t.Errorf("uncached verifier: %+v, want %+v", got, want)
	}
}

// carrying has v judge every VCEK against ask and ark, checked as the
// product line's chain is, instead of the product line's: the seam for a
// test that builds its own PKI.
func carrying(v *Verifier, ask, ark *x509.Certificate) *Verifier {
	c, err := checkLink(ask, ark)
	v.carried = func() (*chain, error) { return c, err }
	return v
}

// pki is a hand-built ARK→ASK→VCEK hierarchy over real chips' VCEK keys,
// serving its VCEKs as a CertSource: the tests pick every certificate's
// signer and validity, which the simulated manufacturer fixes, and have a
// verifier carry its ASK and ARK.
type pki struct {
	t      *testing.T
	notBef time.Time
	arkKey *ecdsa.PrivateKey
	ark    *x509.Certificate
	mu     sync.Mutex
	vceks  map[sev.ChipID]*x509.Certificate
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
	return p.issue(caTemplate(pkix.Name{CommonName: cn}), parent, &key.PublicKey, key, parentKey, notAfter)
}

func caTemplate(subject pkix.Name) *x509.Certificate {
	return &x509.Certificate{Subject: subject, IsCA: true, BasicConstraintsValid: true, KeyUsage: x509.KeyUsageCertSign}
}

// issue signs tmpl, valid from the PKI's start to notAfter, over pub with
// signer under parent, or self-signed by key when parent is nil.
func (p *pki) issue(tmpl, parent *x509.Certificate, pub any, key, signer crypto.Signer, notAfter time.Time) *x509.Certificate {
	p.t.Helper()
	tmpl.SerialNumber = big.NewInt(time.Now().UnixNano())
	tmpl.NotBefore, tmpl.NotAfter = p.notBef, notAfter
	if parent == nil {
		parent, signer = tmpl, key
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, parent, pub, signer)
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
func (p *pki) endorse(chip *amdsp.SecureProcessor, pub any, ask *x509.Certificate, askKey crypto.Signer, notAfter time.Time) *x509.Certificate {
	p.t.Helper()
	cert := p.issue(&x509.Certificate{
		Subject:         pkix.Name{CommonName: "VCEK-TEST"},
		KeyUsage:        x509.KeyUsageDigitalSignature,
		ExtraExtensions: sev.VCEKExtensions(chip.ChipID(), chip.TCB()),
	}, ask, pub, nil, askKey, notAfter)
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

// TestChainLinkProofExpiresWithEarlierOfASKAndARK: a proof lives only
// while both certificates of the ASK→ARK link are valid, at both ends of
// their windows. The link is checked once, with no clock, so its window
// is checked on every walk and held in every proof's fence. The ARK rows
// are the ones a missing fence would get wrong: a proof of a VCEK under a
// valid ASK would answer outside the ARK's window, where a walk fails.
func TestChainLinkProofExpiresWithEarlierOfASKAndARK(t *testing.T) {
	mfr, err := amdsp.NewManufacturer([]byte("link-expiry"))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	early, late := start.Add(-2*time.Hour), start.Add(-30*time.Minute)
	soon, far := start.Add(time.Hour), start.Add(10*365*24*time.Hour)
	for _, tt := range []struct {
		name     string
		ark, ask [2]time.Time // NotBefore, NotAfter
		skew     time.Duration
	}{
		{"ARK expires first", [2]time.Time{early, soon}, [2]time.Time{early, far}, 2 * time.Hour},
		{"ASK expires first", [2]time.Time{early, far}, [2]time.Time{early, soon}, 2 * time.Hour},
		{"ARK issued last", [2]time.Time{late, far}, [2]time.Time{early, far}, -time.Hour},
		{"ASK issued last", [2]time.Time{early, far}, [2]time.Time{late, far}, -time.Hour},
	} {
		t.Run(tt.name, func(t *testing.T) {
			p := &pki{t: t, notBef: tt.ark[0], vceks: map[sev.ChipID]*x509.Certificate{}}
			p.ark, p.arkKey = p.ca("ARK-TEST", nil, nil, tt.ark[1])
			p.notBef = tt.ask[0]
			ask, askKey := p.ca("ASK-TEST", p.ark, p.arkKey, tt.ask[1])
			p.notBef = early // the VCEKs'
			chipA, repA := mintChip(t, mfr, tt.name+"/a")
			chipB, repB := mintChip(t, mfr, tt.name+"/b")
			chipC, repC := mintChip(t, mfr, tt.name+"/c")
			for _, chip := range []*amdsp.SecureProcessor{chipA, chipB, chipC} {
				p.endorse(chip, chipKey(t, mfr, chip), ask, askKey, far)
			}

			var skew atomic.Int64
			v := carrying(NewVerifier(p, nil, WithClock(func() time.Time { return start.Add(time.Duration(skew.Load())) })), ask, p.ark)
			ctx := context.Background()
			if _, err := v.VerifyReport(ctx, repA); err != nil {
				t.Fatal(err)
			}
			if _, err := v.VerifyReport(ctx, repB); err != nil {
				t.Fatal(err)
			}
			if got := v.Stats(); got.ChainLinksVerified != 2 {
				t.Fatalf("inside validity: %+v, want one link per chip", got)
			}

			skew.Store(int64(tt.skew)) // outside the link's window, inside the VCEKs'
			if _, err := v.VerifyReport(ctx, repC); !errors.Is(err, ErrEvidenceExpired) {
				t.Errorf("new chip outside the link's window: err = %v, want ErrEvidenceExpired", err)
			}
			// The proofs that rest on the link do not hold there either.
			if _, err := v.VerifyReport(ctx, repA); !errors.Is(err, ErrEvidenceExpired) {
				t.Errorf("proven report outside the link's window: err = %v, want ErrEvidenceExpired", err)
			}
			if got := v.Stats(); got.ReportHits != 0 || got.ChainHits != 0 {
				t.Errorf("a proof served outside the link's window: %+v", got)
			}

			skew.Store(0) // the same evidence verifies again once the clock is back
			if _, err := v.VerifyReport(ctx, repC); err != nil {
				t.Errorf("after restoring the clock: %v", err)
			}
		})
	}
}

// TestChainWalkRefusesForgedChain is the forged-chain row. Whoever answers
// for the KDS keeps an ARK and an ASK of its own, the ASK under the
// product line's name, and serves a VCEK that ASK issued over a real
// chip's key. The verifier never asks for an ASK or an ARK: it judges the
// VCEK against the ASK it carries, refuses it, and caches nothing. A VCEK
// the carried ASK did not issue is refused the same way when its issuer
// chains to a genuine root: an ASK rotated under the hand-built PKI's ARK,
// to a verifier carrying the first.
func TestChainWalkRefusesForgedChain(t *testing.T) {
	mfr, err := amdsp.NewManufacturer([]byte("forged-chain"))
	if err != nil {
		t.Fatal(err)
	}
	genuine, _, err := sev.ProductChain()
	if err != nil {
		t.Fatal(err)
	}
	far := time.Now().Add(10 * 365 * 24 * time.Hour)
	p := newPKI(t, far) // the attacker's ARK
	forgedKey, err := ecdsa.GenerateKey(elliptic.P384(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	forged := p.issue(caTemplate(genuine.Subject), p.ark, &forgedKey.PublicKey, nil, p.arkKey, far)
	if !bytes.Equal(forged.RawSubject, genuine.RawSubject) {
		t.Fatal("the forged ASK does not carry the product line's name")
	}
	chip, rep := mintChip(t, mfr, "chip")
	p.endorse(chip, chipKey(t, mfr, chip), forged, forgedKey, far)

	v := NewVerifier(p, nil)
	ctx := context.Background()
	for range 2 {
		if _, err := v.VerifyReport(ctx, rep); !errors.Is(err, ErrChainInvalid) {
			t.Fatalf("VCEK under a forged chain: err = %v, want ErrChainInvalid", err)
		}
	}
	if got := v.Stats(); got != (Stats{}) {
		t.Errorf("a forged chain verified something: %+v", got)
	}
	if n := v.chains.Len() + v.reports.Len(); n != 0 {
		t.Errorf("a forged chain left %d proofs", n)
	}
	// The refusal is the chain's: the chip's genuine VCEK verifies.
	der, err := mfr.VCEKCertDER(chip.ChipID(), chip.TCB())
	if err != nil {
		t.Fatal(err)
	}
	vcek, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	p.serveVCEK(chip.ChipID(), vcek)
	if _, err := v.VerifyReport(ctx, rep); err != nil {
		t.Fatalf("genuine VCEK: %v", err)
	}

	ask, _ := p.ca("ASK-TEST", p.ark, p.arkKey, far)
	rotated, rotatedKey := p.ca("ASK-TEST", p.ark, p.arkKey, far)
	other, otherRep := mintChip(t, mfr, "rotated")
	p.endorse(other, chipKey(t, mfr, other), rotated, rotatedKey, far)
	if _, err := carrying(NewVerifier(p, nil), ask, p.ark).VerifyReport(ctx, otherRep); !errors.Is(err, ErrChainInvalid) {
		t.Errorf("VCEK under an ASK the verifier does not carry: err = %v, want ErrChainInvalid", err)
	}
}

// TestChainWalkCachesNothingWhenKDSFailsMidWalk: the VCEK fetch hangs
// until the caller gives up. Nothing of the half-finished verification is
// kept; the retry walks the VCEK's link.
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
		if block.Load() && strings.HasPrefix(r.URL.Path, kds.VCEKPathPrefix) {
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
		t.Fatalf("verification cut by cancellation: err = %v, want context.Canceled", err)
	}
	if n := v.chains.Len() + v.reports.Len(); n != 0 {
		t.Errorf("%d proofs cached by a verification that never finished", n)
	}

	block.Store(false)
	if _, err := v.VerifyReport(context.Background(), rep); err != nil {
		t.Fatalf("retry after the outage: %v", err)
	}
	if got, want := v.Stats(), (Stats{ReportsVerified: 1, ChainLinksVerified: 1, KeysPrepared: 1}); got != want {
		t.Errorf("retry: %+v, want %+v", got, want)
	}
}
