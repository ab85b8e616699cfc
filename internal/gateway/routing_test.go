package gateway

import (
	"context"
	"crypto/tls"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"revelio/internal/core"
	"revelio/internal/fleet"
	"revelio/internal/measure"
	"revelio/internal/ratls"
)

// startGatewayRouted is startGateway with a routing policy installed.
func startGatewayRouted(t *testing.T, src Source, v ratls.Verifier, routing Routing) (*Gateway, *http.Client) {
	t.Helper()
	cert := selfSigned(t)
	g, err := New(Config{
		Source:         src,
		Verifier:       v,
		GetCertificate: func() (*tls.Certificate, error) { return &cert, nil },
		Routing:        routing,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	client := &http.Client{
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{InsecureSkipVerify: true}, //nolint:gosec // test client
		},
		Timeout: 10 * time.Second,
	}
	t.Cleanup(client.CloseIdleConnections)
	return g, client
}

func testMeas(b byte) measure.Measurement {
	var m measure.Measurement
	m[0] = b
	return m
}

// flipHandler counts its hits and serves 500s while failing is set.
type flipHandler struct {
	id      string
	failing atomic.Bool
	hits    atomic.Int64
}

func (h *flipHandler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	h.hits.Add(1)
	if h.failing.Load() {
		http.Error(w, "canary failing", http.StatusInternalServerError)
		return
	}
	_, _ = io.WriteString(w, h.id)
}

// TestRoutingRuleFiltersByContext: hard rules pin path classes to TCB
// floors and localities; requests matching no rule spread
// over everything.
func TestRoutingRuleFiltersByContext(t *testing.T) {
	provider := newTestProvider("rules")

	lowAddr := startUpstream(t, provider, idHandler("low"))
	highAddr := startUpstream(t, provider, idHandler("high"))
	zoneBAddr := startUpstream(t, provider, idHandler("zone-b"))

	low := serving(lowAddr)
	low.TCB, low.Locality = 7, "zone-a"
	high := serving(highAddr)
	high.TCB, high.Locality = 9, "zone-a"
	zoneB := serving(zoneBAddr)
	zoneB.TCB, zoneB.Locality = 7, "zone-b"

	view := NewView(testDomain, low, high, zoneB)
	g, client := startGatewayRouted(t, view, provider, Routing{
		Rules: []RouteRule{
			{Name: "payments", PathPrefix: "/payments", MinTCB: 8},
			{Name: "zone-b-only", PathPrefix: "/zone-b", Localities: []string{"zone-b"}},
		},
	})

	for i := 0; i < 20; i++ {
		body, status := get(t, client, "https://"+g.Addr()+"/payments/charge")
		if status != http.StatusOK || body != "high" {
			t.Fatalf("/payments request %d: status=%d body=%q, want the TCB-9 node", i, status, body)
		}
	}
	for i := 0; i < 20; i++ {
		body, status := get(t, client, "https://"+g.Addr()+"/zone-b/data")
		if status != http.StatusOK || body != "zone-b" {
			t.Fatalf("/zone-b request %d: status=%d body=%q, want the zone-b node", i, status, body)
		}
	}
	seen := map[string]int{}
	for i := 0; i < 60; i++ {
		body, status := get(t, client, "https://"+g.Addr()+"/open")
		if status != http.StatusOK {
			t.Fatalf("unconstrained request %d: status %d", i, status)
		}
		seen[body]++
	}
	for _, id := range []string{"low", "high", "zone-b"} {
		if seen[id] == 0 {
			t.Errorf("unconstrained traffic never reached %q: %v", id, seen)
		}
	}
	if s := g.Stats(); s.PolicyRejected != 0 {
		t.Errorf("PolicyRejected = %d, want 0", s.PolicyRejected)
	}
}

// TestRoutingPolicyDenied: a rule that excludes every serving endpoint
// refuses the request with 503 and no Retry-After — backing off cannot
// help until the policy or the fleet changes.
func TestRoutingPolicyDenied(t *testing.T) {
	provider := newTestProvider("denied")

	ep := serving(startUpstream(t, provider, idHandler("a")))
	ep.TCB = 7
	view := NewView(testDomain, ep)
	g, client := startGatewayRouted(t, view, provider, Routing{
		Rules: []RouteRule{{Name: "strict", PathPrefix: "/payments", MinTCB: 8}},
	})

	resp, err := client.Get("https://" + g.Addr() + "/payments/x")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), ErrNoPolicyUpstreams.Error()) {
		t.Fatalf("body = %q, want it to name %q", body, ErrNoPolicyUpstreams.Error())
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Errorf("policy denial carried Retry-After %q; it is not a shed", ra)
	}
	// Out-of-policy paths refuse, in-policy paths still serve.
	if body, status := get(t, client, "https://"+g.Addr()+"/open"); status != http.StatusOK || body != "a" {
		t.Fatalf("unconstrained path: status=%d body=%q", status, body)
	}
	s := g.Stats()
	if s.PolicyRejected != 1 {
		t.Errorf("PolicyRejected = %d, want 1", s.PolicyRejected)
	}
	if s.SheddedRequests != 0 {
		t.Errorf("SheddedRequests = %d, want 0 — policy denial must not count as shed", s.SheddedRequests)
	}
}

// TestCanaryFractionAndRollback drives the full canary lifecycle over a
// View: a staged rollout steers exactly the configured fraction to the
// canary measurement; when the canary starts failing, auto-rollback
// fires once, traffic stops reaching the canary, and ending the rollout
// clears the state.
func TestCanaryFractionAndRollback(t *testing.T) {
	provider := newTestProvider("canary")

	baseMeas, canaryMeas := testMeas(1), testMeas(2)
	baseH1, baseH2 := &flipHandler{id: "base1"}, &flipHandler{id: "base2"}
	canaryH := &flipHandler{id: "canary"}
	base1 := serving(startUpstream(t, provider, baseH1))
	base1.Measurement = baseMeas
	base2 := serving(startUpstream(t, provider, baseH2))
	base2.Measurement = baseMeas
	canary := serving(startUpstream(t, provider, canaryH))
	canary.Measurement = canaryMeas

	view := NewView(testDomain, base1, base2, canary)
	g, client := startGatewayRouted(t, view, provider, Routing{
		Canary: CanaryConfig{Weight: 25, MaxFailureRate: 0.5, MinSamples: 10},
	})

	// No rollout staged: the canary-measurement node is an ordinary
	// member of the rotation (no steering).
	for i := 0; i < 12; i++ {
		if _, status := get(t, client, "https://"+g.Addr()+"/"); status != http.StatusOK {
			t.Fatalf("pre-rollout request %d: status %d", i, status)
		}
	}

	// Stage the rollout: exactly Weight% of the next 100 requests must
	// land on the canary (the fraction counter is deterministic).
	view.SetRollout(canaryMeas, &baseMeas)
	canaryH.hits.Store(0)
	for i := 0; i < 100; i++ {
		if _, status := get(t, client, "https://"+g.Addr()+"/"); status != http.StatusOK {
			t.Fatalf("staged request %d: status %d", i, status)
		}
	}
	if got := canaryH.hits.Load(); got != 25 {
		t.Errorf("canary received %d/100 staged requests, want exactly 25", got)
	}
	if s := g.Stats(); s.CanaryRequests != 25 || s.CanaryFailures != 0 || s.CanaryRolledBack {
		t.Errorf("healthy-canary stats = %+v", s)
	}

	// The canary starts failing: clients see its 500s (the gateway does
	// not retry served responses), and once MinSamples attempts show the
	// failure rate the rollback fires.
	canaryH.failing.Store(true)
	rolledBack := false
	for i := 0; i < 400 && !rolledBack; i++ {
		resp, err := client.Get("https://" + g.Addr() + "/")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		rolledBack = g.Stats().CanaryRolledBack
	}
	if !rolledBack {
		t.Fatal("canary auto-rollback never fired")
	}

	// Rolled back: the canary measurement is excluded outright; every
	// request serves 200 from the base nodes and the canary's counter
	// holds still.
	frozen := canaryH.hits.Load()
	for i := 0; i < 40; i++ {
		if _, status := get(t, client, "https://"+g.Addr()+"/"); status != http.StatusOK {
			t.Fatalf("post-rollback request %d: status %d", i, status)
		}
	}
	if got := canaryH.hits.Load(); got != frozen {
		t.Errorf("rolled-back canary received %d more requests", got-frozen)
	}
	s := g.Stats()
	if s.CanaryRollbacks != 1 || !s.CanaryRolledBack {
		t.Errorf("rollback stats = %+v, want exactly one rollback", s)
	}
	if s.CanaryMeasurement != canaryMeas.String() {
		t.Errorf("CanaryMeasurement = %q, want %q", s.CanaryMeasurement, canaryMeas.String())
	}

	// The operator ends the rollout (commit or abort): the exclusion
	// lifts and the canary state clears.
	view.SetRollout(baseMeas, nil)
	deadline := time.Now().Add(2 * time.Second)
	for g.Stats().CanaryRolledBack && time.Now().Before(deadline) {
		_, _ = get(t, client, "https://"+g.Addr()+"/")
	}
	if s := g.Stats(); s.CanaryRolledBack {
		t.Error("rollback exclusion survived the rollout ending")
	}
}

// TestCanaryPrefersFallback: canary steering with no healthy canary
// node must fall back to the base set, never fail the request.
func TestCanaryPrefersFallback(t *testing.T) {
	provider := newTestProvider("canary-fallback")

	baseMeas, canaryMeas := testMeas(3), testMeas(4)
	base := serving(startUpstream(t, provider, idHandler("base")))
	base.Measurement = baseMeas
	view := NewView(testDomain, base)
	view.SetRollout(canaryMeas, &baseMeas)
	g, client := startGatewayRouted(t, view, provider, Routing{
		Canary: CanaryConfig{Weight: 100},
	})
	for i := 0; i < 20; i++ {
		body, status := get(t, client, "https://"+g.Addr()+"/")
		if status != http.StatusOK || body != "base" {
			t.Fatalf("request %d: status=%d body=%q", i, status, body)
		}
	}
}

// TestCanaryRollbackDeniesWhenAlone: after rollback, the canary
// measurement is excluded as hard as a rule — if nothing else serves,
// requests are refused as out of policy rather than routed to the
// image that just failed.
func TestCanaryRollbackDeniesWhenAlone(t *testing.T) {
	provider := newTestProvider("canary-alone")

	baseMeas, canaryMeas := testMeas(5), testMeas(6)
	canaryH := &flipHandler{id: "canary"}
	canaryH.failing.Store(true)
	canary := serving(startUpstream(t, provider, canaryH))
	canary.Measurement = canaryMeas
	view := NewView(testDomain, canary)
	view.SetRollout(canaryMeas, &baseMeas)
	g, client := startGatewayRouted(t, view, provider, Routing{
		Canary: CanaryConfig{Weight: 100, MaxFailureRate: 0.5, MinSamples: 2},
	})

	for i := 0; i < 2; i++ {
		if _, status := get(t, client, "https://"+g.Addr()+"/"); status != http.StatusInternalServerError {
			t.Fatalf("failing-canary request %d: status %d, want 500", i, status)
		}
	}
	body, status := get(t, client, "https://"+g.Addr()+"/")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, ErrNoPolicyUpstreams.Error()) {
		t.Fatalf("post-rollback request: status=%d body=%q, want policy 503", status, body)
	}
	if s := g.Stats(); s.CanaryRollbacks != 1 || s.PolicyRejected != 1 {
		t.Errorf("stats = %+v, want one rollback and one policy rejection", s)
	}
}

// TestCanaryAutoRollbackUnderChurn is the end-to-end rollout drill over
// a real fleet: StageFirmware stages a canary image, a joined canary
// node starts failing mid-rollout while membership keeps changing, and
// the gateway must (1) fire auto-rollback exactly once, (2) never again
// route a request to any node on the rolled-back measurement — per-node
// hit counters prove it — and (3) recover cleanly through the
// emergency path: canary nodes removed, AbortRollOut, fleet verifies.
func TestCanaryAutoRollbackUnderChurn(t *testing.T) {
	ctx := context.Background()

	type nodeApp struct {
		hits atomic.Int64
		meas measure.Measurement
	}
	var mu sync.Mutex
	apps := map[string]*nodeApp{}
	var failMeas atomic.Value // measure.Measurement that serves 500s

	f, err := fleet.New(ctx, fleet.Config{
		Nodes: 3,
		App: func(n *core.Node) http.Handler {
			a := &nodeApp{meas: n.VM.Measurement()}
			mu.Lock()
			apps[n.ControlURL()] = a
			mu.Unlock()
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == fleet.HealthPath {
					_, _ = io.WriteString(w, "ok")
					return
				}
				a.hits.Add(1)
				if fm, ok := failMeas.Load().(measure.Measurement); ok && fm == a.meas {
					http.Error(w, "canary failing", http.StatusInternalServerError)
					return
				}
				_, _ = io.WriteString(w, "ok")
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	g, client := startGatewayRouted(t, f, f.Mux(), Routing{
		Canary: CanaryConfig{Weight: 50, MaxFailureRate: 0.5, MinSamples: 5},
	})

	for i := 0; i < 10; i++ {
		if _, status := get(t, client, "https://"+g.Addr()+"/"); status != http.StatusOK {
			t.Fatalf("baseline request %d: status %d", i, status)
		}
	}

	// Stage the rollout and join the canary node (it boots the staged
	// image, so it carries the new golden measurement).
	newGolden, err := f.StageFirmware(ctx, "2024.02")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddNode(ctx); err != nil {
		t.Fatal(err)
	}

	// The canary image is broken: every canary-measurement node serves
	// 500s (health excluded, so breakers stay closed — the failure mode
	// is the application's, not the transport's).
	failMeas.Store(newGolden)

	// Drive traffic until the rollback fires, churning membership mid
	// rollout: another canary-measurement node joins while the first one
	// is already failing.
	rolledBack := false
	for i := 0; i < 400 && !rolledBack; i++ {
		if i == 4 {
			if _, err := f.AddNode(ctx); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := client.Get("https://" + g.Addr() + "/")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		rolledBack = g.Stats().CanaryRolledBack
	}
	if !rolledBack {
		t.Fatal("canary auto-rollback never fired")
	}

	// More churn after the rollback: a base node leaves. The rollback
	// must survive the membership changes without firing again.
	if err := f.RemoveNode(ctx, 0); err != nil {
		t.Fatal(err)
	}

	canaryHits := func() int64 {
		mu.Lock()
		defer mu.Unlock()
		var n int64
		for _, a := range apps {
			if a.meas == newGolden {
				n += a.hits.Load()
			}
		}
		return n
	}
	frozen := canaryHits()
	for i := 0; i < 40; i++ {
		if _, status := get(t, client, "https://"+g.Addr()+"/"); status != http.StatusOK {
			t.Fatalf("post-rollback request %d: status %d", i, status)
		}
	}
	if got := canaryHits(); got != frozen {
		t.Errorf("rolled-back measurement received %d more requests after exclusion", got-frozen)
	}
	if s := g.Stats(); s.CanaryRollbacks != 1 {
		t.Errorf("CanaryRollbacks = %d, want exactly 1 through all the churn", s.CanaryRollbacks)
	}

	// Emergency recovery, in runbook order: retire the canary nodes
	// first, then abort the rollout (which revokes the canary
	// measurement), and the surviving fleet still verifies end to end.
	for {
		idx := -1
		for i, n := range f.Deployment().Nodes {
			if n.VM.Measurement() == newGolden {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		if err := f.RemoveNode(ctx, idx); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.AbortRollOut(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.VerifyFleet(ctx); err != nil {
		t.Fatalf("fleet failed verification after abort: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, status := get(t, client, "https://"+g.Addr()+"/"); status != http.StatusOK {
			t.Fatalf("post-abort request %d: status %d", i, status)
		}
	}
	if s := g.Stats(); s.CanaryRolledBack {
		t.Error("rollback exclusion survived AbortRollOut")
	}
}
