// The SEV-SNP provider keeps the taxonomy's contract end to end: an
// issue/verify round trip, payload-binding and tamper failures, policy
// judgments (untrusted / revoked), policy-revision fencing, expiry,
// unclassified cancellation, and an RA-TLS handshake a revocation fails.
package attestation_test

import (
	"context"
	"crypto/tls"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"revelio/attestation"
	"revelio/attestation/snp"
	"revelio/internal/measure"
	"revelio/internal/ratls"
	"revelio/internal/registry"
)

// testClock is a mutable clock the verifier reads.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// node is one simulated SEV-SNP guest with both halves of its provider,
// under a registry policy that trusts its measurement by vote.
type node struct {
	sim      *snp.Simulator
	provider *snp.Provider
	verifier *snp.Verifier
	golden   measure.Measurement
	registry *registry.Registry
	clock    *testClock
}

func newNode(t *testing.T) *node {
	t.Helper()
	n := &node{clock: &testClock{now: time.Now()}}
	var err error
	if n.sim, err = snp.NewSimulator([]byte("conformance-snp")); err != nil {
		t.Fatal(err)
	}
	kdsSrv := httptest.NewServer(n.sim.Handler())
	t.Cleanup(kdsSrv.Close)
	signer, golden, err := n.sim.LaunchGuest([]byte("chip-0"), 7, []byte("conformance guest"))
	if err != nil {
		t.Fatal(err)
	}
	n.golden = golden
	n.registry = registry.New(1)
	n.registry.AddVoter("operator")
	if err := n.registry.Propose(golden, "conformance golden"); err != nil {
		t.Fatal(err)
	}
	if err := n.registry.Vote("operator", golden); err != nil {
		t.Fatal(err)
	}
	n.verifier = snp.NewVerifier(snp.NewKDSClient(kdsSrv.URL, nil), n.registry, snp.WithClock(n.clock.Now))
	n.provider = snp.NewNodeProvider(signer, n.verifier)
	return n
}

// revoke revokes the golden measurement and bumps the policy revision.
func (n *node) revoke(t *testing.T) {
	t.Helper()
	if err := n.registry.Revoke(n.golden); err != nil {
		t.Fatal(err)
	}
	n.provider.InvalidatePolicy()
}

// snpSubtest names each provider test's subtest after the provider under
// test, so results read as TestProviderX/sev-snp.
const snpSubtest = "sev-snp"

func TestProviderConformance(t *testing.T) {
	t.Run(snpSubtest, func(t *testing.T) {
		n := newNode(t)
		ctx := context.Background()
		payload := []byte("bound application payload")

		// Round trip, through the bundle's wire encoding.
		b, err := n.provider.Issue(ctx, payload)
		if err != nil {
			t.Fatalf("Issue: %v", err)
		}
		wire, err := b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := snp.DecodeBundle(wire)
		if err != nil {
			t.Fatal(err)
		}
		res, err := n.provider.VerifyEvidence(ctx, decoded)
		if err != nil {
			t.Fatalf("VerifyEvidence: %v", err)
		}
		if res.Report.Measurement != n.golden {
			t.Errorf("result measurement = %s, want golden", res.Report.Measurement)
		}

		// Payload substitution must fail the binding.
		swapped := *decoded
		swapped.Payload = []byte("some other payload")
		if _, err := n.provider.VerifyEvidence(ctx, &swapped); !errors.Is(err, attestation.ErrBindingMismatch) {
			t.Errorf("swapped payload: %v, want ErrBindingMismatch", err)
		}

		// A flipped bit in the signed report must fail authentication.
		tampered := *decoded
		tampered.ReportRaw = append([]byte(nil), decoded.ReportRaw...)
		tampered.ReportRaw[len(tampered.ReportRaw)/2] ^= 0x01
		if _, err := n.provider.VerifyEvidence(ctx, &tampered); !errors.Is(err, attestation.ErrEvidenceInvalid) {
			t.Errorf("tampered report: %v, want ErrEvidenceInvalid", err)
		}

		// Untrusted (never-audited) measurement → ErrUntrustedMeasurement.
		rogue, _, err := n.sim.LaunchGuest([]byte("chip-rogue"), 7, []byte("unaudited guest"))
		if err != nil {
			t.Fatal(err)
		}
		rogueBundle, err := snp.NewNodeProvider(rogue, n.verifier).Issue(ctx, payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.provider.VerifyEvidence(ctx, rogueBundle); !errors.Is(err, attestation.ErrUntrustedMeasurement) {
			t.Errorf("rogue measurement: %v, want ErrUntrustedMeasurement", err)
		}

		// Revocation → ErrRevoked (and the ErrPolicyRejected parent), on a
		// bundle the verifier has already proven.
		n.revoke(t)
		if _, err := n.provider.VerifyEvidence(ctx, decoded); !errors.Is(err, attestation.ErrRevoked) {
			t.Errorf("revoked golden: %v, want ErrRevoked", err)
		} else if !errors.Is(err, attestation.ErrPolicyRejected) {
			t.Errorf("ErrRevoked must reach ErrPolicyRejected: %v", err)
		}
	})
}

func TestProviderExpiry(t *testing.T) {
	t.Run(snpSubtest, func(t *testing.T) {
		n := newNode(t)
		ctx := context.Background()
		b, err := n.provider.Issue(ctx, []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.provider.VerifyEvidence(ctx, b); err != nil {
			t.Fatalf("fresh evidence: %v", err)
		}
		// Jump far past every validity window (VCEK NotAfter).
		n.clock.Advance(30 * 365 * 24 * time.Hour)
		if _, err := n.provider.VerifyEvidence(ctx, b); !errors.Is(err, attestation.ErrEvidenceExpired) {
			t.Errorf("expired evidence: %v, want ErrEvidenceExpired", err)
		}
	})
}

// TestProviderCancellation: a dead context surfaces as the context
// error, never reclassified into the taxonomy.
func TestProviderCancellation(t *testing.T) {
	t.Run(snpSubtest, func(t *testing.T) {
		n := newNode(t)
		b, err := n.provider.Issue(context.Background(), []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err = n.provider.VerifyEvidence(ctx, b)
		if err == nil {
			t.Skip("verification completed without touching the context (fully cached)")
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled verify: %v, want context.Canceled", err)
		}
		if errors.Is(err, attestation.ErrKDSUnavailable) {
			t.Errorf("cancellation misclassified as KDS outage: %v", err)
		}
	})
}

// TestProviderRATLS runs the RA-TLS handshake with the provider as both
// the certificate's issuer and the dialer's verifier, then revokes the
// measurement: the very next handshake fails closed.
func TestProviderRATLS(t *testing.T) {
	t.Run(snpSubtest+"/direct", func(t *testing.T) {
		n := newNode(t)
		cert, err := ratls.CreateProviderCertificate(context.Background(), n.provider, "node.internal")
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("attested hello"))
		}))
		srv.TLS = &tls.Config{Certificates: []tls.Certificate{cert}}
		srv.StartTLS()
		defer srv.Close()

		dial := func() error {
			client := &http.Client{Transport: &http.Transport{
				TLSClientConfig: ratls.ProviderClientConfig(n.provider),
			}}
			defer client.CloseIdleConnections()
			resp, err := client.Get(srv.URL)
			if err != nil {
				return err
			}
			return resp.Body.Close()
		}
		if err := dial(); err != nil {
			t.Fatalf("attested dial: %v", err)
		}
		n.revoke(t)
		if err := dial(); err == nil {
			t.Fatal("handshake succeeded after revocation")
		}
	})
}
