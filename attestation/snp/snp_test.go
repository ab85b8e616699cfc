package snp

import (
	"context"
	"net/http/httptest"
	"testing"

	"revelio/internal/measure"
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
