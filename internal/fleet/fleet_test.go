package fleet

import (
	"context"
	"crypto/tls"
	"errors"
	"io"
	"math/big"
	"net"
	"sync"
	"testing"

	"revelio/attestation/snp"
	"revelio/internal/attest"
	"revelio/internal/ratls"
)

func newTestFleet(t *testing.T, nodes int) *Fleet {
	t.Helper()
	f, err := New(context.Background(), Config{Nodes: nodes, Domain: "fleet.test.example.org"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// mustCleanTraffic stops the driver and fails the test on any failed
// request — the zero-failed-connections invariant every churn scenario
// must uphold.
func mustCleanTraffic(t *testing.T, tr *Traffic) (requests int64) {
	t.Helper()
	requests, failures, firstErr := tr.Stop()
	if failures != 0 {
		t.Fatalf("traffic saw %d/%d failed requests; first: %v", failures, requests, firstErr)
	}
	if requests == 0 {
		t.Fatal("traffic driver issued no requests")
	}
	return requests
}

// Scenario 1: dynamic membership. Nodes join through the single-node
// key-acquisition path and leave with drain + leader re-election, while
// attested-TLS traffic flows with zero failures.
func TestScenarioDynamicMembership(t *testing.T) {
	f := newTestFleet(t, 3)
	ctx := context.Background()
	tr := f.StartTraffic(ctx, 4)

	idx, err := f.AddNode(ctx)
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if f.Size() != 4 {
		t.Fatalf("size = %d, want 4", f.Size())
	}
	if got := f.d.Nodes[idx].VM.Measurement(); got != f.Golden() {
		t.Error("joined node not on the golden measurement")
	}
	if err := f.VerifyFleet(ctx); err != nil {
		t.Fatalf("after join: %v", err)
	}

	// Remove the standing leader: a survivor must be promoted and the
	// next join must acquire its key from the promoted leader.
	oldLeader := f.LeaderURL()
	leaderIdx := -1
	for i, n := range f.d.Nodes {
		if n.ControlURL() == oldLeader {
			leaderIdx = i
			break
		}
	}
	if leaderIdx < 0 {
		t.Fatal("leader not found")
	}
	if err := f.RemoveNode(ctx, leaderIdx); err != nil {
		t.Fatalf("RemoveNode(leader): %v", err)
	}
	if f.LeaderURL() == oldLeader || f.LeaderURL() == "" {
		t.Fatalf("leader not re-elected: %q", f.LeaderURL())
	}
	if f.Size() != 3 {
		t.Fatalf("size = %d, want 3", f.Size())
	}
	if _, err := f.AddNode(ctx); err != nil {
		t.Fatalf("join via promoted leader: %v", err)
	}
	if err := f.VerifyFleet(ctx); err != nil {
		t.Fatalf("after churn: %v", err)
	}
	mustCleanTraffic(t, tr)
}

func TestRemoveLastNodeRefused(t *testing.T) {
	f := newTestFleet(t, 1)
	if err := f.RemoveNode(context.Background(), 0); !errors.Is(err, ErrLastNode) {
		t.Errorf("err = %v, want ErrLastNode", err)
	}
}

// Scenario 2: certificate rotation. The SP re-runs provisioning; every
// live listener serves the renewed certificate on its next handshake,
// and no client connection fails at any point. The fleet shares one
// certificate (D3): the CA numbers its issuances, and a rotation of three
// nodes moves the serial by exactly one.
func TestScenarioCertificateRotation(t *testing.T) {
	f := newTestFleet(t, 3)
	ctx := context.Background()

	leafSerial := func(addr string) *big.Int {
		conn, err := tls.Dial("tcp", addr, &tls.Config{
			RootCAs:    f.d.CARootPool(),
			ServerName: f.cfg.Domain,
		})
		if err != nil {
			t.Fatalf("dial %s: %v", addr, err)
		}
		defer func() { _ = conn.Close() }()
		return conn.ConnectionState().PeerCertificates[0].SerialNumber
	}

	before := leafSerial(f.d.Nodes[0].WebAddr())
	tr := f.StartTraffic(ctx, 4)
	if _, err := f.RotateCertificates(ctx); err != nil {
		t.Fatalf("RotateCertificates: %v", err)
	}
	mustCleanTraffic(t, tr)

	// Every node converged on one new certificate without a restart.
	first := leafSerial(f.d.Nodes[0].WebAddr())
	if want := new(big.Int).Add(before, big.NewInt(1)); first.Cmp(want) != 0 {
		t.Errorf("serial %v after rotating from %v, want %v: one CA issuance for the fleet", first, before, want)
	}
	for _, n := range f.d.Nodes[1:] {
		if got := leafSerial(n.WebAddr()); got.Cmp(first) != 0 {
			t.Error("nodes serve different certificates after rotation")
		}
	}
	if err := f.VerifyFleet(ctx); err != nil {
		t.Fatalf("after rotation: %v", err)
	}
}

// Scenario 3: revocation storm. One registry revocation plus one policy
// revision fails every fast-path layer closed fleet-wide: attestation
// proof caches and resumable TLS sessions.
func TestScenarioRevocationStorm(t *testing.T) {
	f := newTestFleet(t, 2)
	ctx := context.Background()
	verifier := f.d.Verifier

	// Prime the attestation proof caches (second pass runs on hits).
	for i := 0; i < 2; i++ {
		if err := f.VerifyFleet(ctx); err != nil {
			t.Fatalf("prime pass %d: %v", i, err)
		}
	}

	// Prime the RA-TLS path: a node-to-node style attested channel with
	// a resumable session, its peer's report proven in the verifier.
	serverCert, err := ratls.CreateProviderCertificate(ctx, snp.NewNodeProvider(f.d.Nodes[0].VM, verifier), f.cfg.Domain)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{
		Certificates: []tls.Certificate{serverCert},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer func() { _ = conn.Close() }()
				_, _ = conn.Write([]byte("x"))
			}(conn)
		}
	}()
	ratlsCfg := ratls.ProviderClientConfig(f.Mux())
	ratlsCfg.ClientSessionCache = tls.NewLRUClientSessionCache(4)
	dial := func() error {
		conn, err := tls.Dial("tcp", ln.Addr().String(), ratlsCfg)
		if err != nil {
			return err
		}
		defer func() { _ = conn.Close() }()
		one := make([]byte, 1)
		_, err = io.ReadFull(conn, one)
		return err
	}
	if err := dial(); err != nil {
		t.Fatalf("ratls prime dial: %v", err)
	}
	if err := dial(); err != nil {
		t.Fatalf("ratls second dial: %v", err)
	}

	// The storm: one revocation, one policy revision.
	revBefore := verifier.PolicyRevision()
	if err := f.RevokeGolden(); err != nil {
		t.Fatalf("RevokeGolden: %v", err)
	}
	if got := verifier.PolicyRevision(); got != revBefore+1 {
		t.Errorf("policy revision = %d, want %d", got, revBefore+1)
	}

	// Fleet-wide fail-closed, against warm caches everywhere.
	if err := f.VerifyFleet(ctx); !errors.Is(err, attest.ErrRevoked) {
		t.Errorf("VerifyFleet after storm: %v, want ErrRevoked", err)
	}
	for i, n := range f.d.Nodes {
		rep, err := n.VM.Report([64]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := verifier.VerifyReport(ctx, rep); !errors.Is(err, attest.ErrRevoked) {
			t.Errorf("node %d fresh report accepted after storm: %v", i, err)
		}
	}
	if err := dial(); err == nil {
		t.Error("ratls connection (resumed session over a proven report) survived the storm")
	}
}

// Scenario 4: KDS outage and recovery. Proven evidence keeps verifying
// from the caches (policy still judged per hit), unknown chips fail
// closed, and recovery costs O(new chips) KDS round trips rather than a
// thundering herd.
func TestScenarioKDSOutageRecovery(t *testing.T) {
	f := newTestFleet(t, 2)
	ctx := context.Background()

	if err := f.VerifyFleet(ctx); err != nil {
		t.Fatalf("prime: %v", err)
	}

	kdsDown := errors.New("kds unreachable")
	f.FailKDS(kdsDown)

	// Degraded mode: already-proven fleet evidence still verifies — the
	// caches carry it, with policy re-judged on every hit.
	if err := f.VerifyFleet(ctx); err != nil {
		t.Errorf("cached verification during outage: %v", err)
	}
	// Fail closed: a new chip's evidence cannot be verified, so a join
	// is refused outright.
	if _, err := f.AddNode(ctx); err == nil {
		t.Fatal("node joined during KDS outage")
	}
	if f.Size() != 2 {
		t.Fatalf("failed join left the fleet at size %d", f.Size())
	}

	// Recovery: the next join succeeds, and a 16-wide verification burst
	// against the new node's evidence costs at most the one VCEK fetch
	// its new chip needs — singleflight and the caches absorb the herd.
	f.RestoreKDS()
	before := f.d.KDSNet().Requests()
	idx, err := f.AddNode(ctx)
	if err != nil {
		t.Fatalf("join after recovery: %v", err)
	}
	rep, err := f.d.Nodes[idx].VM.Report([64]byte{0xAB})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func() {
			_, err := f.d.Verifier.VerifyReport(ctx, rep)
			errs <- err
		}()
	}
	for g := 0; g < 16; g++ {
		if err := <-errs; err != nil {
			t.Errorf("burst verification: %v", err)
		}
	}
	if delta := f.d.KDSNet().Requests() - before; delta > 2 {
		t.Errorf("recovery cost %d KDS round trips, want <= 2 (no thundering herd)", delta)
	}
	if err := f.VerifyFleet(ctx); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

// Scenario 5: measured-image rollout. The fleet rolls node by node onto
// a new firmware build: mixed-measurement fleets stay consistent with
// the registry mid-roll, the old golden is revoked at commit, and
// traffic never fails. In-place reboot across the measurement change is
// impossible (the sealing layer refuses), which is what makes the roll
// a replacement.
func TestScenarioMeasuredImageRollout(t *testing.T) {
	f := newTestFleet(t, 3)
	ctx := context.Background()
	oldGolden := f.Golden()
	tr := f.StartTraffic(ctx, 4)

	newGolden, err := f.StageFirmware(context.Background(), "2024.11")
	if err != nil {
		t.Fatalf("StageFirmware: %v", err)
	}
	if newGolden == oldGolden {
		t.Fatal("staging did not change the golden measurement")
	}
	// Staging again before commit would orphan the old golden (it would
	// never be revoked) — refused.
	if _, err := f.StageFirmware(context.Background(), "2024.12"); err == nil {
		t.Fatal("double-stage accepted")
	}
	if f.Golden() != newGolden {
		t.Fatal("refused stage changed fleet state")
	}
	// Mixed-measurement window: both goldens trusted, fleet verifies.
	if !f.trust.IsTrusted(oldGolden) || !f.trust.IsTrusted(newGolden) {
		t.Fatal("mixed-roll registry state wrong")
	}
	if _, err := f.ReplaceNode(ctx, 0); err != nil {
		t.Fatalf("first roll step: %v", err)
	}
	measurements := map[bool]int{}
	for _, n := range f.d.Nodes {
		measurements[n.VM.Measurement() == newGolden]++
	}
	if measurements[true] != 1 || measurements[false] != 2 {
		t.Fatalf("mid-roll fleet mix = %v, want 1 new / 2 old", measurements)
	}
	if err := f.VerifyFleet(ctx); err != nil {
		t.Fatalf("mixed fleet failed verification: %v", err)
	}

	// Finish the roll and commit.
	for i := 0; i < 2; i++ {
		if _, err := f.ReplaceNode(ctx, 0); err != nil {
			t.Fatalf("roll step: %v", err)
		}
	}
	if err := f.CommitRollOut(); err != nil {
		t.Fatalf("CommitRollOut: %v", err)
	}
	mustCleanTraffic(t, tr)

	for i, n := range f.d.Nodes {
		if n.VM.Measurement() != newGolden {
			t.Errorf("node %d still on the old measurement", i)
		}
	}
	if f.trust.IsTrusted(oldGolden) {
		t.Error("old golden still trusted after commit")
	}
	if err := f.VerifyFleet(ctx); err != nil {
		t.Fatalf("after rollout: %v", err)
	}

	// A straggler that somehow boots the old image now fails closed: the
	// old measurement is revoked registry-wide.
	if _, err := f.d.SetFirmware(context.Background(), "2023.05"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddNode(ctx); err == nil {
		t.Error("old-measurement straggler joined after commit")
	}
}

// TestRollOutConvenience drives the whole scenario through the one-call
// API with traffic on.
func TestRollOutConvenience(t *testing.T) {
	f := newTestFleet(t, 2)
	ctx := context.Background()
	tr := f.StartTraffic(ctx, 2)
	newGolden, err := f.RollOut(ctx, "2025.01")
	if err != nil {
		t.Fatalf("RollOut: %v", err)
	}
	mustCleanTraffic(t, tr)
	if f.Golden() != newGolden {
		t.Error("fleet golden not updated")
	}
	if err := f.VerifyFleet(ctx); err != nil {
		t.Fatalf("after rollout: %v", err)
	}
}

// TestFleetCloseIdempotent: double and concurrent Close are no-ops
// after the first.
func TestFleetCloseIdempotent(t *testing.T) {
	f, err := New(context.Background(), Config{Nodes: 1, Domain: "close.test.example.org"})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	f.Close() // must not panic, deadlock, or double-free

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Close()
		}()
	}
	wg.Wait()
}

// TestFleetNewCancelled: a dead context aborts the fleet build-out with
// a wrapped context error and no half-built deployment left behind.
func TestFleetNewCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(ctx, Config{Nodes: 1, Domain: "cancelled.test.example.org"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("New with dead ctx: %v, want context.Canceled", err)
	}
}
