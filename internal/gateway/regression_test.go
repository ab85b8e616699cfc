package gateway

import (
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"revelio/attestation"
	"revelio/internal/fleet"
	"revelio/internal/resilience"
)

// TestGatewayStripsClientForwardedFor: the gateway is the trust
// boundary, so an X-Forwarded-For supplied by the outside client must
// never reach the nodes. Regression: forward() used to append the
// gateway-observed address to the inbound header, letting any client
// spoof an arbitrary source-IP chain past the proxy.
func TestGatewayStripsClientForwardedFor(t *testing.T) {
	provider, _, _ := softProvider(t, "xff")
	mux := attestation.NewMux()
	mux.RegisterProvider(provider)

	echo := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, r.Header.Get("X-Forwarded-For"))
	})
	view := NewView(testDomain, serving(startUpstream(t, provider, echo)))
	g, client := startGateway(t, view, mux)

	req, err := http.NewRequest(http.MethodGet, "https://"+g.Addr()+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Forwarded-For", "203.0.113.9")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "203.0.113.9") {
		t.Errorf("client-supplied X-Forwarded-For reached the upstream: %q", body)
	}
	if string(body) != "127.0.0.1" {
		t.Errorf("upstream saw X-Forwarded-For %q, want the gateway-observed client IP 127.0.0.1", body)
	}
}

// TestGatewayPolicyEpochSurvivesSourceChurn: a policy bump must flush
// the pools even when a revision source deregistered in between.
// Regression: the gateway used to compare the *sum* of source
// revisions; deregistering a source with revision R and then bumping a
// surviving source by R lands the sum back on its old value, and the
// revoked provider's warm pooled connections keep serving. The epoch is
// checked over the sources known before each view change and the
// sources are rebuilt right after, so a sum sees the same number on
// both sides of the churn; only per-source increments notice the bump.
func TestGatewayPolicyEpochSurvivesSourceChurn(t *testing.T) {
	soft, softReg, softGolden := softProvider(t, "epoch-churn")
	extra := &testProvider{name: "extra"}
	extra.rev.Store(5)
	mux := attestation.NewMux()
	mux.RegisterProvider(soft)
	mux.RegisterProvider(extra)

	softAddr := startUpstream(t, soft, idHandler("soft"))
	view := NewView(testDomain, serving(softAddr))
	// Requests are the only observers here: no probe tick, and no Stats
	// call until the end (both observe the view, and under a sum a second
	// observation after the churn would flush on the shrunken sum and
	// hide the bug).
	g, client := startGatewayRes(t, view, mux, Resilience{ProbeInterval: time.Hour})

	// Warm the pool: the upstream connection is verified and cached.
	if body, status := get(t, client, "https://"+g.Addr()+"/"); status != http.StatusOK || body != "soft" {
		t.Fatalf("warm-up: status=%d body=%q", status, body)
	}

	// The extra source drops out and the view changes. The next request
	// observes it: the epoch check still runs over the old source list
	// (nothing bumped, no flush), then the sources are rebuilt without
	// the departed one.
	mux.Deregister("extra")
	view.Set(serving(softAddr))
	if body, status := get(t, client, "https://"+g.Addr()+"/"); status != http.StatusOK || body != "soft" {
		t.Fatalf("after source churn: status=%d body=%q", status, body)
	}
	if !view.consumedBy(g) {
		t.Fatal("request did not consume the new view")
	}

	// Revoke the serving provider and bump its revision by exactly the
	// departed source's revision, landing the sum back on its old value.
	flushes := g.flushes.Load()
	if err := softReg.Revoke(softGolden); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		soft.InvalidatePolicy()
	}

	resp, err := client.Get("https://" + g.Addr() + "/")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Error("revoked provider's warm pool kept serving after the policy bump")
		}
	}
	if s := g.Stats(); s.PolicyFlushes <= flushes {
		t.Errorf("policy bump after source churn did not flush: flushes %d -> %d", flushes, s.PolicyFlushes)
	}
}

// TestGatewayAbortsTruncatedResponse: when the upstream dies mid-body,
// the gateway must tear the downstream connection down rather than let
// its server finish the response encoding. Regression: the copy error
// was swallowed, so clients saw a clean 200 with a silently truncated
// body.
func TestGatewayAbortsTruncatedResponse(t *testing.T) {
	provider, _, _ := softProvider(t, "truncate")
	mux := attestation.NewMux()
	mux.RegisterProvider(provider)

	trunc := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "partial")
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
	view := NewView(testDomain, serving(startUpstream(t, provider, trunc)))
	g, client := startGateway(t, view, mux)

	// The client must observe a torn connection — either on the request
	// itself (abort before the gateway flushed headers) or while reading
	// the body — never a cleanly terminated truncated 200.
	resp, err := client.Get("https://" + g.Addr() + "/")
	if err == nil {
		_, readErr := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if readErr == nil {
			t.Fatal("truncated upstream body read cleanly through the gateway")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().TruncatedResponses == 0 {
		if time.Now().After(deadline) {
			t.Fatal("TruncatedResponses never counted the aborted copy")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatsEjectedSorted: Stats must report ejections in a stable
// order, independent of map iteration.
func TestStatsEjectedSorted(t *testing.T) {
	provider, _, _ := softProvider(t, "sorted")
	mux := attestation.NewMux()
	mux.RegisterProvider(provider)
	g, err := New(Config{Source: NewView(testDomain), Verifier: mux})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	g.mu.Lock()
	for _, addr := range []string{"9.9.9.9:1", "1.1.1.1:1", "5.5.5.5:1"} {
		up := &upstream{
			ep:      fleet.Endpoint{UpstreamAddr: addr, State: fleet.StateServing},
			breaker: resilience.NewBreaker(g.breakerConfig()),
		}
		up.ejected.Store(true)
		g.ups[addr] = up
	}
	g.mu.Unlock()

	s := g.Stats()
	if len(s.Ejected) != 3 || !sort.StringsAreSorted(s.Ejected) {
		t.Errorf("Ejected = %v, want 3 sorted addresses", s.Ejected)
	}
}
