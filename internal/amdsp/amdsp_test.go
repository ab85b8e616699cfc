package amdsp

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/x509"
	"errors"
	"sync"
	"testing"

	"revelio/internal/measure"
	"revelio/internal/sev"
)

func newTestSetup(t *testing.T) (*Manufacturer, *SecureProcessor) {
	t.Helper()
	mfr, err := NewManufacturer([]byte("test-manufacturer-seed"))
	if err != nil {
		t.Fatalf("NewManufacturer: %v", err)
	}
	sp, err := mfr.MintProcessor([]byte("chip-0"), 5)
	if err != nil {
		t.Fatalf("MintProcessor: %v", err)
	}
	return mfr, sp
}

func launchGuest(t *testing.T, sp *SecureProcessor, pages ...string) *GuestChannel {
	t.Helper()
	h := sp.LaunchStart(0x30000, 1)
	for i, p := range pages {
		if err := sp.LaunchUpdate(h, measure.PageNormal, uint64(i)*0x1000, []byte(p), p); err != nil {
			t.Fatalf("LaunchUpdate: %v", err)
		}
	}
	if _, err := sp.LaunchFinish(h); err != nil {
		t.Fatalf("LaunchFinish: %v", err)
	}
	g, err := sp.GuestChannel(h)
	if err != nil {
		t.Fatalf("GuestChannel: %v", err)
	}
	return g
}

func TestManufacturerDeterminism(t *testing.T) {
	m1, err := NewManufacturer([]byte("seed"))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewManufacturer([]byte("seed"))
	if err != nil {
		t.Fatal(err)
	}
	sp1, err := m1.MintProcessor([]byte("c"), 3)
	if err != nil {
		t.Fatal(err)
	}
	sp2, err := m2.MintProcessor([]byte("c"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if sp1.ChipID() != sp2.ChipID() {
		t.Error("same seeds produced different chip IDs")
	}
	if sp1.vcek.X.Cmp(sp2.vcek.X) != 0 {
		t.Error("same seeds produced different VCEKs")
	}
	if _, err := NewManufacturer(nil); err == nil {
		t.Error("empty seed accepted")
	}
}

func TestVCEKRotatesWithTCB(t *testing.T) {
	mfr, _ := newTestSetup(t)
	spOld, err := mfr.MintProcessor([]byte("chip-1"), 1)
	if err != nil {
		t.Fatal(err)
	}
	spNew, err := mfr.MintProcessor([]byte("chip-1"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if spOld.ChipID() != spNew.ChipID() {
		t.Fatal("TCB update changed the chip ID")
	}
	if spOld.vcek.X.Cmp(spNew.vcek.X) == 0 {
		t.Error("TCB update did not rotate the VCEK")
	}
}

func TestLaunchMeasurementAndReport(t *testing.T) {
	_, sp := newTestSetup(t)
	g := launchGuest(t, sp, "ovmf", "hashtable")

	var data sev.ReportData
	copy(data[:], "hash-of-public-key")
	report, err := g.Report(data)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if report.Measurement != g.Measurement() {
		t.Error("report measurement differs from launch measurement")
	}
	if report.ChipID != sp.ChipID() || report.TCBVersion != sp.TCB() {
		t.Error("report chip identity mismatch")
	}
	if report.ReportData != data {
		t.Error("report data not bound")
	}
	if err := report.Verify(sp.VCEKPublic()); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestLaunchLifecycleErrors(t *testing.T) {
	_, sp := newTestSetup(t)
	h := sp.LaunchStart(0, 0)
	if _, err := sp.GuestChannel(h); !errors.Is(err, ErrLaunchNotFinalized) {
		t.Errorf("GuestChannel before finish: err = %v, want ErrLaunchNotFinalized", err)
	}
	if _, err := sp.LaunchFinish(h); err != nil {
		t.Fatal(err)
	}
	if err := sp.LaunchUpdate(h, measure.PageNormal, 0, []byte("x"), ""); !errors.Is(err, ErrLaunchFinalized) {
		t.Errorf("update after finish: err = %v, want ErrLaunchFinalized", err)
	}
	if _, err := sp.LaunchFinish(h); !errors.Is(err, ErrLaunchFinalized) {
		t.Errorf("double finish: err = %v, want ErrLaunchFinalized", err)
	}
	if err := sp.LaunchUpdate(LaunchHandle(999), measure.PageNormal, 0, nil, ""); !errors.Is(err, ErrUnknownLaunch) {
		t.Errorf("unknown handle: err = %v, want ErrUnknownLaunch", err)
	}
}

func TestSealingKeyBoundToMeasurement(t *testing.T) {
	_, sp := newTestSetup(t)
	gGood := launchGuest(t, sp, "kernel-v1")
	gGood2 := launchGuest(t, sp, "kernel-v1")
	gBad := launchGuest(t, sp, "kernel-evil")

	k1, err := gGood.SealingKey("disk")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := gGood2.SealingKey("disk")
	if err != nil {
		t.Fatal(err)
	}
	k3, err := gBad.SealingKey("disk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k1, k2) {
		t.Error("identical launches derived different sealing keys")
	}
	if bytes.Equal(k1, k3) {
		t.Error("different measurement derived the same sealing key")
	}
	kCtx, err := gGood.SealingKey("tls")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k1, kCtx) {
		t.Error("different context derived the same sealing key")
	}
}

func TestSealingKeyBoundToChip(t *testing.T) {
	mfr, sp0 := newTestSetup(t)
	sp1, err := mfr.MintProcessor([]byte("chip-other"), 5)
	if err != nil {
		t.Fatal(err)
	}
	g0 := launchGuest(t, sp0, "same-image")
	g1 := launchGuest(t, sp1, "same-image")
	k0, err := g0.SealingKey("disk")
	if err != nil {
		t.Fatal(err)
	}
	k1, err := g1.SealingKey("disk")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k0, k1) {
		t.Error("sealing key identical across chips")
	}
}

func TestVCEKCertChainValidates(t *testing.T) {
	mfr, sp := newTestSetup(t)
	der, err := mfr.VCEKCertDER(sp.ChipID(), sp.TCB())
	if err != nil {
		t.Fatalf("VCEKCertDER: %v", err)
	}
	vcekCert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}

	ask, ark, err := sev.ProductChain()
	if err != nil {
		t.Fatal(err)
	}
	roots := x509.NewCertPool()
	roots.AddCert(ark)
	inters := x509.NewCertPool()
	inters.AddCert(ask)

	if _, err := vcekCert.Verify(x509.VerifyOptions{
		Roots:         roots,
		Intermediates: inters,
		CurrentTime:   ark.NotBefore.AddDate(1, 0, 0),
		KeyUsages:     []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	}); err != nil {
		t.Errorf("VCEK chain verification: %v", err)
	}

	chipID, tcb, err := sev.VCEKIdentity(vcekCert)
	if err != nil {
		t.Fatalf("VCEKIdentity: %v", err)
	}
	if chipID != sp.ChipID() || tcb != sp.TCB() {
		t.Error("VCEK certificate identity mismatch")
	}

	// The cert's public key must match the key that signs reports.
	g := launchGuest(t, sp, "fw")
	report, err := g.Report(sev.ReportData{})
	if err != nil {
		t.Fatal(err)
	}
	pub, ok := vcekCert.PublicKey.(*ecdsa.PublicKey)
	if !ok || !pub.Equal(&sp.vcek.PublicKey) {
		t.Error("VCEK cert public key differs from report signing key")
	}
	if err := report.Verify(sp.VCEKPublic()); err != nil {
		t.Error(err)
	}
}

// TestProductASKKeyIsCarried: the ASK key every Manufacturer derives is
// the key of the ASK certificate internal/sev carries, and that
// certificate keeps the simulator's window: the simulator conforms to the
// verifier's chain.
func TestProductASKKeyIsCarried(t *testing.T) {
	ask, ark, err := sev.ProductChain()
	if err != nil {
		t.Fatal(err)
	}
	key, err := productASKKey()
	if err != nil {
		t.Fatal(err)
	}
	if !key.PublicKey.Equal(ask.PublicKey) {
		t.Error("the derived ASK key is not the carried ASK's")
	}
	mfr, _ := newTestSetup(t)
	for _, c := range []*x509.Certificate{ask, ark} {
		if !c.NotBefore.Equal(mfr.notBef) || !c.NotAfter.Equal(mfr.notBef.Add(certValidity)) {
			t.Errorf("%s valid %s to %s, want the simulator's window from %s", c.Subject.CommonName, c.NotBefore, c.NotAfter, mfr.notBef)
		}
	}
}

func TestVCEKCertUnknownChip(t *testing.T) {
	mfr, _ := newTestSetup(t)
	var bogus sev.ChipID
	bogus[0] = 0xFF
	if _, err := mfr.VCEKCertDER(bogus, 1); !errors.Is(err, ErrUnknownChip) {
		t.Errorf("unknown chip: err = %v, want ErrUnknownChip", err)
	}
}

// TestVCEKCertIssuedOnce: a refusal is not remembered, so a chip asked
// about before it is minted is certified after; concurrent first requests
// for one (chip, TCB) share one signature and every caller gets the same
// certificate, at the minted TCB and at one the chip was never minted at.
func TestVCEKCertIssuedOnce(t *testing.T) {
	mfr, err := NewManufacturer([]byte("issue-once"))
	if err != nil {
		t.Fatal(err)
	}
	var chipID sev.ChipID
	copy(chipID[:], mfr.chipSecret([]byte("late-chip")))
	if _, err := mfr.VCEKCertDER(chipID, 3); !errors.Is(err, ErrUnknownChip) {
		t.Fatalf("before minting: err = %v, want ErrUnknownChip", err)
	}
	if _, err := mfr.MintProcessor([]byte("late-chip"), 3); err != nil {
		t.Fatal(err)
	}

	// TCB 3 is the one the chip was minted at; TCB 4 is a firmware
	// update the KDS is asked about first.
	const callers = 16
	for n, tcb := range []uint64{3, 4} {
		ders := make([][]byte, callers)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for i := range ders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ders[i], errs[i] = mfr.VCEKCertDER(chipID, tcb)
			}()
		}
		wg.Wait()
		for i := range ders {
			if errs[i] != nil {
				t.Fatalf("tcb %d, caller %d: %v", tcb, i, errs[i])
			}
			if !bytes.Equal(ders[i], ders[0]) {
				t.Fatalf("tcb %d: caller %d got a different certificate", tcb, i)
			}
		}
		if got, want := mfr.Stats().VCEKCertsMinted, uint64(n+1); got != want {
			t.Errorf("after tcb %d: %d certificates signed, want %d", tcb, got, want)
		}
	}
}

// TestCrossManufacturerIsolation: a report signed by one manufacturer's
// chip must not verify under another's VCEK.
func TestCrossManufacturerIsolation(t *testing.T) {
	_, spA := newTestSetup(t)
	mfrB, err := NewManufacturer([]byte("other-manufacturer"))
	if err != nil {
		t.Fatal(err)
	}
	spB, err := mfrB.MintProcessor([]byte("chip-0"), 5)
	if err != nil {
		t.Fatal(err)
	}
	g := launchGuest(t, spA, "fw")
	report, err := g.Report(sev.ReportData{})
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Verify(spB.VCEKPublic()); err == nil {
		t.Error("report verified under a different manufacturer's key")
	}
}

// TestStatsCountEachKeyOperationOnce: minting a chip derives its VCEK key
// once and the certificate for the minted TCB reuses that public key; a
// certificate for a TCB the chip was never minted at derives once more,
// then never again; each (chip, TCB) certificate is signed once however
// often it is asked for; every report signed by any of the manufacturer's
// chips is counted.
func TestStatsCountEachKeyOperationOnce(t *testing.T) {
	mfr, sp := newTestSetup(t) // one chip minted at TCB 5
	if got := mfr.Stats(); got != (Stats{VCEKKeysDerived: 1}) {
		t.Fatalf("after MintProcessor: %+v, want one derivation and nothing else", got)
	}
	for i := 0; i < 2; i++ {
		der, err := mfr.VCEKCertDER(sp.ChipID(), sp.TCB())
		if err != nil {
			t.Fatal(err)
		}
		cert, err := x509.ParseCertificate(der)
		if err != nil {
			t.Fatal(err)
		}
		if pub, ok := cert.PublicKey.(*ecdsa.PublicKey); !ok || !pub.Equal(&sp.vcek.PublicKey) {
			t.Fatal("certificate does not carry the chip's VCEK key")
		}
	}
	if got := mfr.Stats(); got != (Stats{VCEKKeysDerived: 1, VCEKCertsMinted: 1}) {
		t.Errorf("after two certificates at the minted TCB: %+v", got)
	}

	// A TCB the chip was not minted at: the same key MintProcessor would
	// derive for it, derived once across repeated requests.
	derNext, err := mfr.VCEKCertDER(sp.ChipID(), sp.TCB()+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mfr.VCEKCertDER(sp.ChipID(), sp.TCB()+1); err != nil {
		t.Fatal(err)
	}
	if got := mfr.Stats(); got != (Stats{VCEKKeysDerived: 2, VCEKCertsMinted: 2}) {
		t.Errorf("after two certificates at another TCB: %+v", got)
	}
	upgraded, err := mfr.MintProcessor([]byte("chip-0"), sp.TCB()+1)
	if err != nil {
		t.Fatal(err)
	}
	certNext, err := x509.ParseCertificate(derNext)
	if err != nil {
		t.Fatal(err)
	}
	if pub, ok := certNext.PublicKey.(*ecdsa.PublicKey); !ok || !pub.Equal(&upgraded.vcek.PublicKey) {
		t.Error("certificate issued before the upgrade does not match the upgraded chip's key")
	}

	before := mfr.Stats().ReportsSigned
	for _, chip := range []*SecureProcessor{sp, upgraded} {
		if _, err := launchGuest(t, chip, "fw").Report(sev.ReportData{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := mfr.Stats().ReportsSigned - before; got != 2 {
		t.Errorf("two reports on two chips counted as %d", got)
	}
}
