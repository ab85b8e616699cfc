package attest

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"math/big"
	"sync/atomic"
	"testing"
	"time"

	"revelio/internal/amdsp"
	"revelio/internal/sev"
)

// TestChainProofCarriesKey: a VCEK's prepared key lives in the VCEK's
// chain proof and nowhere else. It is built once per proven chain, found
// there by every later report under that VCEK, and gone when the proof is:
// by a policy-revision bump, by the chain's expiry, by another DER for the
// same chip. A VCEK whose key cannot be prepared proves nothing and leaves
// nothing behind. The verifier carries the test's ASK and ARK, and, once
// the ASK has run out, their renewal.
func TestChainProofCarriesKey(t *testing.T) {
	mfr, err := amdsp.NewManufacturer([]byte("proof-key"))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	soon, far := start.Add(time.Hour), start.Add(10*365*24*time.Hour)
	p := newPKI(t, far)
	ask, askKey := p.ca("ASK-TEST", p.ark, p.arkKey, soon)
	chip, first := mintChip(t, mfr, "chip")
	guest := launchGuest(t, chip)
	genuine := p.endorse(chip, chipKey(t, mfr, chip), ask, askKey, far)

	var skew atomic.Int64
	v := carrying(NewVerifier(p, nil, WithClock(func() time.Time { return start.Add(time.Duration(skew.Load())) })), ask, p.ark)
	ctx := context.Background()
	var nonce byte
	fresh := func() *sev.Report {
		t.Helper()
		nonce++
		rep, err := guest.Report(sev.ReportData{0x22, nonce})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	// verify runs one report and returns what it cost.
	verify := func(rep *sev.Report) (Stats, error) {
		before := v.Stats()
		_, err := v.VerifyReport(ctx, rep)
		return v.Stats().Sub(before), err
	}
	expect := func(what string, rep *sev.Report, want Stats) {
		t.Helper()
		got, err := verify(rep)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got != want {
			t.Fatalf("%s cost %+v, want %+v", what, got, want)
		}
	}
	warm := Stats{ReportsVerified: 1, ChainHits: 1}

	expect("first report", first, Stats{ReportsVerified: 1, ChainLinksVerified: 1, KeysPrepared: 1})
	expect("second report, same VCEK", fresh(), warm)
	expect("third report, same VCEK", fresh(), warm)

	v.InvalidatePolicy()
	expect("after InvalidatePolicy", fresh(), Stats{ReportsVerified: 1, ChainLinksVerified: 1, KeysPrepared: 1})
	expect("and the report after it", fresh(), warm)

	// The ASK runs out and is renewed: the VCEK's DER has not changed, but
	// its proof ended with the chain that made it, and the key with the
	// proof.
	skew.Store(int64(2 * time.Hour))
	if _, err := verify(fresh()); !errors.Is(err, ErrEvidenceExpired) {
		t.Fatalf("past the ASK's NotAfter: err = %v, want ErrEvidenceExpired", err)
	}
	ask = p.caFor("ASK-TEST", askKey, p.ark, p.arkKey, far)
	carrying(v, ask, p.ark)
	expect("past the old chain's NotAfter, ASK renewed", fresh(), Stats{ReportsVerified: 1, ChainLinksVerified: 1, KeysPrepared: 1})
	expect("and the report after it", fresh(), warm)

	// The chip's VCEK is issued again, over another key: another DER, so a
	// miss, a walk and a key of its own, under which a report the chip's
	// real VCEK signed does not verify. Served the first certificate again,
	// the verifier finds that one's proof, and key, where it left them.
	other, err := ecdsa.GenerateKey(elliptic.P384(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p.endorse(chip, &other.PublicKey, ask, askKey, far)
	cost, err := verify(fresh())
	if !errors.Is(err, sev.ErrBadSignature) {
		t.Fatalf("report under a re-issued VCEK with another key: err = %v, want ErrBadSignature", err)
	}
	if want := (Stats{ChainLinksVerified: 1, KeysPrepared: 1}); cost != want {
		t.Fatalf("re-issued VCEK cost %+v, want %+v", cost, want)
	}
	p.serveVCEK(chip.ChipID(), genuine)
	expect("the first VCEK again", fresh(), warm)

	// VCEKs that chain to the ARK and name their chip, over keys no report
	// signature can be checked against: one on P-256, one that is not a
	// point on P-384 at all (no DER carries such a key through
	// x509.ParseCertificate; a CertSource that builds its certificates some
	// other way could).
	p256, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for name, lie := range map[string]func(*amdsp.SecureProcessor){
		"P-256 key": func(c *amdsp.SecureProcessor) { p.endorse(c, &p256.PublicKey, ask, askKey, far) },
		"key off the curve": func(c *amdsp.SecureProcessor) {
			honest := chipKey(t, mfr, c)
			cert := *p.endorse(c, honest, ask, askKey, far)
			cert.PublicKey = &ecdsa.PublicKey{Curve: elliptic.P384(), X: honest.X, Y: new(big.Int).Add(honest.Y, big.NewInt(1))}
			p.serveVCEK(c.ChipID(), &cert)
		},
	} {
		c, rep := mintChip(t, mfr, name)
		lie(c)
		cached := v.chains.Len()
		cost, err := verify(rep)
		if !errors.Is(err, sev.ErrBadSignature) {
			t.Errorf("VCEK with a %s: err = %v, want ErrBadSignature", name, err)
		}
		if want := (Stats{ChainLinksVerified: 1}); cost != want {
			t.Errorf("VCEK with a %s cost %+v, want %+v", name, cost, want)
		}
		if got := v.chains.Len(); got != cached {
			t.Errorf("VCEK with a %s: chain cache went from %d to %d entries", name, cached, got)
		}
	}
}
