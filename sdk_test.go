// Facade-level SDK tests: the public surface (package revelio +
// revelio/attestation*) exercised exactly as an external consumer
// would — no internal imports anywhere in this file. They pin the
// error-taxonomy contract from the top of the stack, the context-first
// lifecycle semantics, and Close idempotence.
package revelio_test

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"revelio"
	"revelio/attestation"
	"revelio/attestation/snp"
)

func newTestService(t *testing.T, opts ...revelio.Option) *revelio.Service {
	t.Helper()
	svc, err := revelio.New(context.Background(),
		append([]revelio.Option{revelio.WithDomain("sdk.test.example.org")}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// TestFacadeErrorTaxonomy drives each failure mode through the public
// facade and asserts the sentinel from revelio/attestation — the same
// errors the attest layer maps to, observed from the very top.
func TestFacadeErrorTaxonomy(t *testing.T) {
	ctx := context.Background()

	t.Run("untrusted measurement", func(t *testing.T) {
		reg := revelio.NewTrustRegistry(1)
		reg.AddVoter("auditor")
		svc := newTestService(t, revelio.WithTrustRegistry(reg))
		// Nothing voted yet: provisioning and direct verification both
		// fail with the untrusted-measurement sentinel.
		if _, err := svc.Provision(ctx); !errors.Is(err, attestation.ErrUntrustedMeasurement) {
			t.Fatalf("Provision: %v, want ErrUntrustedMeasurement", err)
		}
		ev := nodeEvidence(t, svc)
		if _, err := svc.Verifier().VerifyEvidence(ctx, ev); !errors.Is(err, attestation.ErrUntrustedMeasurement) {
			t.Fatalf("Verifier verify: %v, want ErrUntrustedMeasurement", err)
		}
	})

	t.Run("revocation", func(t *testing.T) {
		reg := revelio.NewTrustRegistry(1)
		reg.AddVoter("auditor")
		svc := newTestService(t, revelio.WithTrustRegistry(reg))
		vote(t, reg, svc.Golden())
		ev := nodeEvidence(t, svc)
		verifier := svc.Verifier()
		if _, err := verifier.VerifyEvidence(ctx, ev); err != nil {
			t.Fatalf("trusted evidence rejected: %v", err)
		}
		if err := reg.Revoke(svc.Golden()); err != nil {
			t.Fatal(err)
		}
		verifier.InvalidatePolicy()
		err := verifyErr(verifier, ev)
		if !errors.Is(err, attestation.ErrRevoked) || !errors.Is(err, attestation.ErrPolicyRejected) {
			t.Fatalf("revoked golden: %v, want ErrRevoked (under ErrPolicyRejected)", err)
		}
		if errors.Is(err, attestation.ErrUntrustedMeasurement) {
			t.Fatalf("revocation must stay distinct from plain distrust: %v", err)
		}
	})

	t.Run("KDS outage", func(t *testing.T) {
		f, err := revelio.NewFleet(ctx, revelio.FleetConfig{Domain: "sdk.test.example.org"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Close)
		// A joining node runs on a new chip, whose VCEK only the KDS has.
		f.FailKDS(fmt.Errorf("backbone down"))
		if _, err := f.AddNode(ctx); !errors.Is(err, attestation.ErrKDSUnavailable) {
			t.Fatalf("join during outage: %v, want ErrKDSUnavailable", err)
		}
		// Failure not cached: the next join after recovery succeeds.
		f.RestoreKDS()
		if _, err := f.AddNode(ctx); err != nil {
			t.Fatalf("join after recovery: %v", err)
		}
	})

	t.Run("TCB floor", func(t *testing.T) {
		svc := newTestService(t)
		strict := snp.NewVerifier(svc.CertSource(), snp.NewStaticGolden(svc.Golden()), snp.WithMinTCB(99))
		if err := verifyErr(strict, nodeEvidence(t, svc)); !errors.Is(err, attestation.ErrTCBTooOld) {
			t.Fatalf("TCB floor: %v, want ErrTCBTooOld", err)
		}
	})

	t.Run("expired evidence", func(t *testing.T) {
		svc := newTestService(t)
		future := time.Now().Add(40 * 365 * 24 * time.Hour)
		late := snp.NewVerifier(svc.CertSource(), snp.NewStaticGolden(svc.Golden()),
			snp.WithClock(func() time.Time { return future }))
		if err := verifyErr(late, nodeEvidence(t, svc)); !errors.Is(err, attestation.ErrEvidenceExpired) {
			t.Fatalf("expired: %v, want ErrEvidenceExpired", err)
		}
	})
}

// nodeEvidence issues a report bundle from node 0 of a service.
func nodeEvidence(t *testing.T, svc *revelio.Service) *snp.Bundle {
	t.Helper()
	provider := snp.NewNodeProvider(svc.Node(0).VM, svc.Verifier())
	ev, err := provider.Issue(context.Background(), []byte("facade test payload"))
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func verifyErr(v *snp.Verifier, ev *snp.Bundle) error {
	_, err := v.VerifyEvidence(context.Background(), ev)
	return err
}

func vote(t *testing.T, reg *revelio.TrustRegistry, m revelio.Measurement) {
	t.Helper()
	if err := reg.Propose(m, "sdk test golden"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Vote("auditor", m); err != nil {
		t.Fatal(err)
	}
}

// TestProvisionCancellation: a dead context surfaces as wrapped
// context.Canceled from Provision, and the abort never poisons the
// fail-closed caches — the immediate retry provisions cleanly.
func TestProvisionCancellation(t *testing.T) {
	svc := newTestService(t)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := svc.Provision(dead)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Provision(dead ctx): %v, want wrapped context.Canceled", err)
	}
	if errors.Is(err, attestation.ErrKDSUnavailable) || errors.Is(err, attestation.ErrPolicyRejected) {
		t.Fatalf("cancellation misclassified into the taxonomy: %v", err)
	}
	if _, err := svc.Provision(context.Background()); err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if err := svc.ServeWeb(nil); err != nil {
		t.Fatalf("ServeWeb after recovered provisioning: %v", err)
	}
}

// TestLeaderRemovalReElects: through the public fleet surface, removing
// the standing leader promotes a survivor, so a later join still
// acquires the shared key.
func TestLeaderRemovalReElects(t *testing.T) {
	ctx := context.Background()
	f, err := revelio.NewFleet(ctx, revelio.FleetConfig{Nodes: 2, Domain: "sdk.test.example.org"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	oldLeader := f.LeaderURL()
	leaderIdx := -1
	for i, n := range f.Deployment().Nodes {
		if n.ControlURL() == oldLeader {
			leaderIdx = i
			break
		}
	}
	if leaderIdx < 0 {
		t.Fatal("leader not among nodes")
	}
	if err := f.RemoveNode(ctx, leaderIdx); err != nil {
		t.Fatalf("remove leader: %v", err)
	}
	if got := f.LeaderURL(); got == "" || got == oldLeader {
		t.Fatalf("leader not re-elected: %q", got)
	}
	// The join path below needs a live leader for key acquisition.
	if _, err := f.AddNode(ctx); err != nil {
		t.Fatalf("AddNode after leader removal: %v", err)
	}
	if f.Size() != 2 {
		t.Fatalf("fleet size = %d, want 2", f.Size())
	}
}

// TestServiceCloseIdempotent: Close twice and concurrently is a no-op,
// and a closed service opens nothing — ServeWeb after Close fails, and
// one racing Close leaves no listener behind (run under -race, the race
// row also checks that Close and ServeWeb never touch a node at once).
func TestServiceCloseIdempotent(t *testing.T) {
	t.Run("repeated and concurrent", func(t *testing.T) {
		svc, err := revelio.New(context.Background(), revelio.WithDomain("close.sdk.example.org"))
		if err != nil {
			t.Fatal(err)
		}
		svc.Close()
		svc.Close()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				svc.Close()
			}()
		}
		wg.Wait()
	})

	t.Run("ServeWeb after Close", func(t *testing.T) {
		svc := newTestService(t)
		if _, err := svc.Provision(context.Background()); err != nil {
			t.Fatal(err)
		}
		svc.Close()
		if err := svc.ServeWeb(nil); err == nil {
			t.Error("ServeWeb after Close succeeded")
		}
		if addr := svc.WebAddr(0); addr != "" {
			t.Errorf("WebAddr(0) = %q after Close, want \"\"", addr)
		}
	})

	t.Run("Close races ServeWeb", func(t *testing.T) {
		svc := newTestService(t)
		if _, err := svc.Provision(context.Background()); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = svc.ServeWeb(nil)
		}()
		go func() {
			defer wg.Done()
			svc.Close()
		}()
		wg.Wait()
		// Whichever ran first, nothing is left listening.
		if addr := svc.WebAddr(0); addr != "" {
			if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
				_ = conn.Close()
				t.Errorf("web listener %s still accepts connections after Close", addr)
			}
		}
	})
}

// TestServeWebEndToEnd: the three-call happy path produces a live
// attested HTTPS endpoint.
func TestServeWebEndToEnd(t *testing.T) {
	svc := newTestService(t)
	if _, err := svc.Provision(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := svc.ServeWeb(func(*revelio.Node) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("sdk ok"))
		})
	}); err != nil {
		t.Fatal(err)
	}
	if svc.WebAddr(0) == "" {
		t.Fatal("no web address after ServeWeb")
	}
}

// TestImageProfilesPinned pins what an auditor publishes for each image
// profile: its dm-verity root hash and its golden launch measurement
// under the default OVMF build. A change to either means every deployed
// node's measurement changed, so it must be deliberate.
func TestImageProfilesPinned(t *testing.T) {
	for _, tt := range []struct {
		profile            revelio.Profile
		verityRoot, golden string
	}{
		{revelio.ProfileBoundaryNode,
			"49928ca8e0f9727a08a2762039e22e6eaa8b59bce046efa633c6f8ca9cd064c3",
			"1ad264888e71173d07c944114f241c2f7256ed4a61e942b6f1a09b6c1cb1ada6cadb2bec42949fb93a82d26c2bf293b5"},
		{revelio.ProfileCryptPad,
			"985167753df3096cf9356122e72f5fa6a8fc1ccb9c781298f09bea8abc5209f0",
			"4cc2326af792918021d8ec16135a1c44475054ccf5b7013a91952822a9a4e323766597babc2de1a727f54a8afe38af9b"},
	} {
		t.Run(string(tt.profile), func(t *testing.T) {
			build, err := revelio.BuildImage(tt.profile)
			if err != nil {
				t.Fatal(err)
			}
			if build.FirmwareVersion != "2023.05" {
				t.Errorf("firmware %q, want 2023.05", build.FirmwareVersion)
			}
			root := build.Manifest().RootHash
			if got := hex.EncodeToString(root[:]); got != tt.verityRoot {
				t.Errorf("verity root %s, want %s", got, tt.verityRoot)
			}
			if got := build.Golden.String(); got != tt.golden {
				t.Errorf("golden %s, want %s", got, tt.golden)
			}
		})
	}
}

// TestDefaultServiceAndFleetShareGolden: a Service and a Fleet built with
// no firmware option boot the same default OVMF build, so an auditor's
// one published golden value covers both front doors — and so does
// BuildImage's, which an auditor reruns from sources.
func TestDefaultServiceAndFleetShareGolden(t *testing.T) {
	ctx := context.Background()
	svc := newTestService(t)
	f, err := revelio.NewFleet(ctx, revelio.FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if svc.Golden() != f.Golden() {
		t.Fatalf("default Service golden %s != default Fleet golden %s", svc.Golden(), f.Golden())
	}
	build, err := revelio.BuildImage(revelio.ProfileCryptPad)
	if err != nil {
		t.Fatal(err)
	}
	if build.FirmwareVersion != revelio.DefaultFirmwareVersion || build.Golden != svc.Golden() {
		t.Fatalf("BuildImage: firmware %q golden %s, want %q and %s",
			build.FirmwareVersion, build.Golden, revelio.DefaultFirmwareVersion, svc.Golden())
	}
}
