// Provider conformance: the attestation provider — the hardware
// SEV-SNP plane — must keep the neutral interfaces' contract: issue/verify
// round trips, payload-binding and tamper failures, misrouted evidence,
// expiry, policy judgments (untrusted / revoked), policy-revision
// fencing, and the provider-neutral RA-TLS handshake.
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

// harness is one provider under test, with the hooks the suite needs.
type harness struct {
	name     string
	provider attestation.Provider
	golden   measure.Measurement
	registry *registry.Registry // the live policy behind the provider
	// advance jumps the provider's clocks past every validity window.
	advance func(d time.Duration)
	// invalidate bumps the provider's policy revision.
	invalidate func()
	// freshIssuer returns an issuer with an untrusted measurement.
	freshIssuer func(t *testing.T) attestation.Issuer
}

// testClock is a mutable clock shared by a harness's components.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock { return &testClock{now: time.Now()} }

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

func newRegistryPolicy(t *testing.T, golden measure.Measurement) *registry.Registry {
	t.Helper()
	reg := registry.New(1)
	reg.AddVoter("operator")
	if err := reg.Propose(golden, "conformance golden"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Vote("operator", golden); err != nil {
		t.Fatal(err)
	}
	return reg
}

func newSNPHarness(t *testing.T) *harness {
	t.Helper()
	clock := newTestClock()
	sim, err := snp.NewSimulator([]byte("conformance-snp"))
	if err != nil {
		t.Fatal(err)
	}
	kdsSrv := httptest.NewServer(sim.Handler())
	t.Cleanup(kdsSrv.Close)
	signer, golden, err := sim.LaunchGuest([]byte("chip-0"), 7, []byte("conformance guest"))
	if err != nil {
		t.Fatal(err)
	}
	reg := newRegistryPolicy(t, golden)
	client := snp.NewKDSClient(kdsSrv.URL, nil)
	verifier := snp.NewVerifier(client, reg, snp.WithClock(clock.Now))
	provider := snp.NewNodeProvider(signer, verifier)
	return &harness{
		name:       "sev-snp",
		provider:   provider,
		golden:     golden,
		registry:   reg,
		advance:    clock.Advance,
		invalidate: verifier.InvalidatePolicy,
		freshIssuer: func(t *testing.T) attestation.Issuer {
			t.Helper()
			rogue, _, err := sim.LaunchGuest([]byte("chip-rogue"), 7, []byte("unaudited guest"))
			if err != nil {
				t.Fatal(err)
			}
			return snp.NewNodeProvider(rogue, verifier)
		},
	}
}

func harnesses(t *testing.T) []*harness {
	t.Helper()
	return []*harness{newSNPHarness(t)}
}

func TestProviderConformance(t *testing.T) {
	for _, h := range harnesses(t) {
		h := h
		t.Run(h.name, func(t *testing.T) {
			ctx := context.Background()
			payload := []byte("bound application payload")

			// Round trip, including the JSON envelope.
			ev, err := h.provider.Issue(ctx, payload)
			if err != nil {
				t.Fatalf("Issue: %v", err)
			}
			if ev.Provider != h.provider.Name() {
				t.Fatalf("evidence tagged %q, want %q", ev.Provider, h.provider.Name())
			}
			wire, err := ev.Encode()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := attestation.DecodeEvidence(wire)
			if err != nil {
				t.Fatal(err)
			}
			res, err := h.provider.VerifyEvidence(ctx, decoded)
			if err != nil {
				t.Fatalf("VerifyEvidence: %v", err)
			}
			if res.Measurement != h.golden {
				t.Errorf("result measurement = %s, want golden", res.Measurement)
			}
			if res.Provider != h.provider.Name() {
				t.Errorf("result provider = %q", res.Provider)
			}

			// Payload substitution must fail the binding.
			swapped := *decoded
			swapped.Payload = []byte("some other payload")
			if _, err := h.provider.VerifyEvidence(ctx, &swapped); !errors.Is(err, attestation.ErrEvidenceInvalid) {
				t.Errorf("swapped payload: %v, want ErrEvidenceInvalid", err)
			}

			// Document tampering must fail authentication.
			tampered := *decoded
			doc := append([]byte(nil), decoded.Document...)
			for i, c := range doc {
				if c == ':' { // corrupt a value byte past the first key
					doc[i+1] ^= 0x01
					break
				}
			}
			tampered.Document = doc
			if _, err := h.provider.VerifyEvidence(ctx, &tampered); err == nil {
				t.Error("tampered document verified")
			}

			// Wrong provider tag must not be judged by this verifier.
			misrouted := *decoded
			misrouted.Provider = "someone-else"
			if _, err := h.provider.VerifyEvidence(ctx, &misrouted); !errors.Is(err, attestation.ErrUnknownProvider) {
				t.Errorf("misrouted evidence: %v, want ErrUnknownProvider", err)
			}

			// Revocation → ErrRevoked (and the ErrPolicyRejected parent).
			if err := h.registry.Revoke(h.golden); err != nil {
				t.Fatal(err)
			}
			h.invalidate()
			if _, err := h.provider.VerifyEvidence(ctx, decoded); !errors.Is(err, attestation.ErrRevoked) {
				t.Errorf("revoked golden: %v, want ErrRevoked", err)
			} else if !errors.Is(err, attestation.ErrPolicyRejected) {
				t.Errorf("ErrRevoked must reach ErrPolicyRejected: %v", err)
			}

			// Untrusted (never-audited) measurement → ErrUntrustedMeasurement.
			rogueEv, err := h.freshIssuer(t).Issue(ctx, payload)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.provider.VerifyEvidence(ctx, rogueEv); !errors.Is(err, attestation.ErrUntrustedMeasurement) {
				t.Errorf("rogue measurement: %v, want ErrUntrustedMeasurement", err)
			}

			// Expiry: re-trust the golden? Revocation is permanent, so mint
			// fresh evidence is still revoked — expiry must win the race by
			// being judged first or at least be reachable on a trusted
			// harness. Use a fresh harness to keep the judgment clean.
		})
	}
}

func TestProviderExpiry(t *testing.T) {
	for _, h := range harnesses(t) {
		h := h
		t.Run(h.name, func(t *testing.T) {
			ctx := context.Background()
			ev, err := h.provider.Issue(ctx, []byte("payload"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.provider.VerifyEvidence(ctx, ev); err != nil {
				t.Fatalf("fresh evidence: %v", err)
			}
			// Jump far past every validity window (VCEK NotAfter).
			h.advance(30 * 365 * 24 * time.Hour)
			if _, err := h.provider.VerifyEvidence(ctx, ev); !errors.Is(err, attestation.ErrEvidenceExpired) {
				t.Errorf("expired evidence: %v, want ErrEvidenceExpired", err)
			}
		})
	}
}

// TestProviderCancellation: a dead context surfaces as the context
// error, never reclassified into the taxonomy.
func TestProviderCancellation(t *testing.T) {
	for _, h := range harnesses(t) {
		h := h
		t.Run(h.name, func(t *testing.T) {
			ev, err := h.provider.Issue(context.Background(), []byte("payload"))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err = h.provider.VerifyEvidence(ctx, ev)
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
}

// TestProviderRATLS runs the provider-neutral RA-TLS handshake for each
// provider, dialing with the provider itself as the verifier. Each gets
// a fresh harness, because the scenario ends in a permanent revocation.
func TestProviderRATLS(t *testing.T) {
	for _, h := range harnesses(t) {
		h := h
		t.Run(h.name+"/direct", func(t *testing.T) {
			cert, err := ratls.CreateProviderCertificate(context.Background(), h.provider, "node.internal")
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				_, _ = w.Write([]byte("attested hello"))
			}))
			srv.TLS = &tls.Config{Certificates: []tls.Certificate{cert}}
			srv.StartTLS()
			defer srv.Close()

			client := &http.Client{Transport: &http.Transport{
				TLSClientConfig: ratls.ProviderClientConfig(h.provider),
			}}
			defer client.CloseIdleConnections()
			resp, err := client.Get(srv.URL)
			if err != nil {
				t.Fatalf("attested dial: %v", err)
			}
			_ = resp.Body.Close()

			// Revoke the golden: the very next handshake fails closed,
			// even against warmed memos.
			if err := h.registry.Revoke(h.golden); err != nil {
				t.Fatal(err)
			}
			h.invalidate()
			client2 := &http.Client{Transport: &http.Transport{
				TLSClientConfig: ratls.ProviderClientConfig(h.provider),
			}}
			defer client2.CloseIdleConnections()
			if _, err := client2.Get(srv.URL); err == nil {
				t.Fatal("handshake succeeded after revocation")
			}
		})
	}
}
