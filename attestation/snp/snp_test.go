package snp

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha512"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"revelio/attestation"
	"revelio/internal/measure"
	"revelio/internal/sev"
)

type rig struct {
	sim      *Simulator
	signer   ReportSigner
	golden   Measurement
	verifier *Verifier
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sim, err := NewSimulator([]byte("snp-pkg-test"))
	if err != nil {
		t.Fatal(err)
	}
	signer, golden, err := sim.LaunchGuest([]byte("chip-a"), 5, []byte("guest blob"))
	if err != nil {
		t.Fatal(err)
	}
	server := httptest.NewServer(sim.Handler())
	t.Cleanup(server.Close)
	verifier := NewVerifier(NewKDSClient(server.URL, nil), NewStaticGolden(golden))
	return &rig{sim: sim, signer: signer, golden: golden, verifier: verifier}
}

func TestProviderIssueVerify(t *testing.T) {
	r := newRig(t)
	p := NewNodeProvider(r.signer, r.verifier)
	b, err := p.Issue(context.Background(), []byte("tls key der"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.VerifyEvidence(context.Background(), b)
	if err != nil {
		t.Fatalf("VerifyEvidence: %v", err)
	}
	if res.Report.Measurement != r.golden || res.Report.TCBVersion != 5 || string(b.Payload) != "tls key der" {
		t.Errorf("result = %+v over payload %q", res.Report, b.Payload)
	}
}

func TestRevisionPassThrough(t *testing.T) {
	r := newRig(t)
	p := NewNodeProvider(r.signer, r.verifier)
	before := r.verifier.PolicyRevision()
	p.InvalidatePolicy()
	if got := p.PolicyRevision(); got != before+1 {
		t.Errorf("provider revision = %d, want %d", got, before+1)
	}
	if got := r.verifier.PolicyRevision(); got != before+1 {
		t.Errorf("verifier revision = %d, want %d: the provider does not share it", got, before+1)
	}
}

func TestSimulatorDemo(t *testing.T) {
	sim, err := NewSimulator([]byte("demo"))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sim.MintDemo([]byte("demo-chip"), 7)
	if err != nil {
		t.Fatal(err)
	}
	if ev.TCB != 7 || len(ev.ReportRaw) == 0 {
		t.Errorf("demo evidence = %+v", ev)
	}
	server := httptest.NewServer(sim.Handler())
	t.Cleanup(server.Close)
	verifier := NewVerifier(NewKDSClient(server.URL, nil), NewStaticGolden(ev.Golden))
	res, err := verifier.VerifyRaw(context.Background(), ev.ReportRaw)
	if err != nil {
		t.Fatalf("demo report vs demo KDS: %v", err)
	}
	if res.Report.ChipID != ev.ChipID {
		t.Error("verified chip differs from demo chip")
	}
}

// TestDemoGoldenIsItsLedger pins the demo guest's launch to its one
// measured page: revelio-kds prints this golden, and it must not move.
func TestDemoGoldenIsItsLedger(t *testing.T) {
	sim, err := NewSimulator([]byte("demo"))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sim.MintDemo([]byte("demo-chip"), 7)
	if err != nil {
		t.Fatal(err)
	}
	ledger := measure.NewLedger()
	if err := ledger.Extend(measure.PageNormal, 0xFFC00000, []byte("demo firmware"), "ovmf"); err != nil {
		t.Fatal(err)
	}
	if want := ledger.Finalize(); ev.Golden != want {
		t.Errorf("demo golden = %s, ledger recomputes %s", ev.Golden, want)
	}
	const printed = "4356b95eee6e57efbea944afa718953a8a366b9906cf70d8358f4045f3307857dae4954d4f2a4d40ff61a71f0be295e1"
	if got := ev.Golden.String(); got != printed {
		t.Errorf("demo golden = %s, revelio-kds has always printed %s", got, printed)
	}
}

// TestForgedChainRefused is the forged-chain row on the public surface.
// Whoever answers on the verifier→KDS hop serves an ARK and an ASK of its
// own, under the names the genuine KDS publishes, and a VCEK that ASK
// issued over the attacker's key for a chip of its choosing; the report
// that key signs claims the golden measurement. The verifier fetches only
// the VCEK, judges it against the ASK it carries, refuses it as
// ErrChainInvalid, and proves nothing.
func TestForgedChainRefused(t *testing.T) {
	r := newRig(t)
	genuine := httptest.NewServer(r.sim.Handler())
	t.Cleanup(genuine.Close)
	resp, err := http.Get(genuine.URL + CertChainPath)
	if err != nil {
		t.Fatal(err)
	}
	published, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var names [][]byte // the published ASK's and ARK's, in that order
	for rest := published; ; {
		var block *pem.Block
		if block, rest = pem.Decode(rest); block == nil {
			break
		}
		cert, err := x509.ParseCertificate(block.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, cert.RawSubject)
	}
	if len(names) != 2 {
		t.Fatalf("the KDS publishes %d certificates, want the ASK and the ARK", len(names))
	}

	issue := func(tmpl, parent *x509.Certificate, key, signer *ecdsa.PrivateKey) *x509.Certificate {
		t.Helper()
		tmpl.SerialNumber = big.NewInt(1)
		tmpl.NotBefore, tmpl.NotAfter = time.Now().Add(-time.Hour), time.Now().Add(24*time.Hour)
		if parent == nil {
			parent = tmpl
		}
		der, err := x509.CreateCertificate(rand.Reader, tmpl, parent, &key.PublicKey, signer)
		if err != nil {
			t.Fatal(err)
		}
		cert, err := x509.ParseCertificate(der)
		if err != nil {
			t.Fatal(err)
		}
		return cert
	}
	var keys [3]*ecdsa.PrivateKey
	for i := range keys {
		if keys[i], err = ecdsa.GenerateKey(elliptic.P384(), rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	arkKey, askKey, vcekKey := keys[0], keys[1], keys[2]
	ca := func(name []byte) *x509.Certificate {
		return &x509.Certificate{RawSubject: name, IsCA: true, BasicConstraintsValid: true, KeyUsage: x509.KeyUsageCertSign}
	}
	ark := issue(ca(names[1]), nil, arkKey, arkKey)
	ask := issue(ca(names[0]), ark, askKey, arkKey)
	chip := ChipID{0: 0xA7}
	vcek := issue(&x509.Certificate{KeyUsage: x509.KeyUsageDigitalSignature, ExtraExtensions: sev.VCEKExtensions(chip, 5)}, ask, vcekKey, askKey)

	payload := []byte("the attacker's TLS key")
	report := &Report{Version: sev.ReportVersion, TCBVersion: 5, Measurement: r.golden, ReportData: sev.HashOf(payload), ChipID: chip}
	digest := sha512.Sum384(report.SignedBytes())
	if report.Signature, err = ecdsa.SignASN1(rand.Reader, vcekKey, digest[:]); err != nil {
		t.Fatal(err)
	}
	raw, err := report.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	chain := append(pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: ask.Raw}),
		pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: ark.Raw})...)
	attacker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == CertChainPath {
			_, _ = w.Write(chain)
			return
		}
		_, _ = w.Write(vcek.Raw)
	}))
	t.Cleanup(attacker.Close)

	v := NewVerifier(NewKDSClient(attacker.URL, nil), NewStaticGolden(r.golden))
	for range 2 {
		if _, err := v.VerifyEvidence(context.Background(), &Bundle{ReportRaw: raw, Payload: payload}); !errors.Is(err, attestation.ErrChainInvalid) {
			t.Fatalf("evidence under a forged chain: err = %v, want ErrChainInvalid", err)
		}
	}
	if s := v.Stats(); s.ReportsVerified != 0 || s.ChainLinksVerified != 0 || s.KeysPrepared != 0 {
		t.Errorf("a forged chain proved something: %+v", s)
	}
}
