package snp

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"revelio/attestation"
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
	if p.Name() != ProviderName {
		t.Errorf("Name() = %q", p.Name())
	}
	ev, err := p.Issue(context.Background(), []byte("tls key der"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.VerifyEvidence(context.Background(), ev)
	if err != nil {
		t.Fatalf("VerifyEvidence: %v", err)
	}
	if res.Measurement != r.golden || res.Provider != ProviderName || res.TCB != 5 {
		t.Errorf("result = %+v", res)
	}
}

func TestVerifyOnlyProviderCannotIssue(t *testing.T) {
	r := newRig(t)
	p := NewProvider(r.verifier)
	if _, err := p.Issue(context.Background(), []byte("x")); err == nil {
		t.Fatal("verify-only provider issued evidence")
	}
	if p.Verifier() != r.verifier {
		t.Error("Verifier() does not expose the wrapped verifier")
	}
}

func TestEvidenceBundleBridge(t *testing.T) {
	r := newRig(t)
	p := NewNodeProvider(r.signer, r.verifier)
	ev, err := p.Issue(context.Background(), []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	// The neutral envelope decodes as a bundle document and re-wraps.
	wire, err := ev.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := attestation.DecodeEvidence(wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.VerifyEvidence(context.Background(), back); err != nil {
		t.Fatalf("re-decoded evidence: %v", err)
	}

	// A bare bundle (the well-known endpoint's wire format) bridges in.
	report, err := r.signer.Report(HashOf([]byte("wk payload")))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := report.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bundle := &Bundle{ReportRaw: raw, Payload: []byte("wk payload")}
	bundleJSON, err := bundle.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := EvidenceFromBundleJSON(bundleJSON)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.VerifyEvidence(context.Background(), ev2); err != nil {
		t.Fatalf("bridged bundle: %v", err)
	}
}

func TestEnvelopePayloadMismatch(t *testing.T) {
	r := newRig(t)
	p := NewNodeProvider(r.signer, r.verifier)
	ev, err := p.Issue(context.Background(), []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	ev.Payload = []byte("someone else's payload")
	if _, err := p.VerifyEvidence(context.Background(), ev); !errors.Is(err, attestation.ErrBindingMismatch) {
		t.Fatalf("payload mismatch: %v, want ErrBindingMismatch", err)
	}
}

func TestWrongProviderAndBadDocument(t *testing.T) {
	r := newRig(t)
	p := NewProvider(r.verifier)
	if _, err := p.VerifyEvidence(context.Background(), &attestation.Evidence{
		Provider: "soft-tdx", Document: []byte("{}"),
	}); !errors.Is(err, attestation.ErrUnknownProvider) {
		t.Errorf("foreign tag: %v", err)
	}
	if _, err := p.VerifyEvidence(context.Background(), &attestation.Evidence{
		Provider: ProviderName, Document: []byte("not json"),
	}); !errors.Is(err, attestation.ErrEvidenceInvalid) {
		t.Errorf("garbage document: %v", err)
	}
	if _, err := p.VerifyEvidence(context.Background(), &attestation.Evidence{
		Provider: ProviderName, Document: []byte("{}"),
	}); !errors.Is(err, attestation.ErrEvidenceInvalid) {
		t.Errorf("empty document: %v", err)
	}
}

func TestRevisionPassThrough(t *testing.T) {
	r := newRig(t)
	p := NewProvider(r.verifier)
	before := p.PolicyRevision()
	p.InvalidatePolicy()
	if got := p.PolicyRevision(); got != before+1 {
		t.Errorf("revision = %d, want %d", got, before+1)
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
