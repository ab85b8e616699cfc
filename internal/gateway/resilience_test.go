package gateway

import (
	"crypto/tls"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"revelio/internal/fleet"
	"revelio/internal/ratls"
)

// startGatewayRes is startGateway with explicit resilience knobs.
func startGatewayRes(t *testing.T, src Source, v ratls.Verifier, res Resilience, tune ...func(*Gateway)) (*Gateway, *http.Client) {
	t.Helper()
	cert := selfSigned(t)
	g, err := New(Config{
		Source:         src,
		Verifier:       v,
		GetCertificate: func() (*tls.Certificate, error) { return &cert, nil },
		Resilience:     res,
	})
	if err != nil {
		t.Fatal(err)
	}
	// tune reaches the unexported bounds production keeps constant.
	for _, f := range tune {
		f(g)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	client := &http.Client{
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{InsecureSkipVerify: true}, //nolint:gosec // test client
		},
		Timeout: 30 * time.Second,
	}
	t.Cleanup(client.CloseIdleConnections)
	return g, client
}

// stallHandler blocks every request — health probes included — while
// stalled, and serves id otherwise. It also counts non-probe hits, so
// tests can prove a breaker-open node receives no client traffic.
type stallHandler struct {
	id      string
	stalled atomic.Bool
	hits    atomic.Int64
}

func (h *stallHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != fleet.HealthPath {
		h.hits.Add(1)
	}
	if h.stalled.Load() {
		<-r.Context().Done()
		return
	}
	_, _ = w.Write([]byte(h.id))
}

// blackhole opens a listener that accepts and immediately closes every
// connection — a node that is reachable but never completes a
// handshake — counting accepts so tests can measure attempt
// amplification and post-trip pick suppression.
func blackhole(t *testing.T) (addr string, accepts *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			n.Add(1)
			_ = c.Close()
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return ln.Addr().String(), &n
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, within time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", within, msg)
}

// TestGatewayStalledUpstreamFailsOverWithinPerTryBudget: a node that
// accepts the connection and never sends response headers must cost a
// request at most the per-try budget before it fails over — not the
// 30s writeTimeout it cost before the per-attempt deadline existed. So
// must a node that accepts TCP and never completes the RA-TLS handshake:
// the dial and the handshake run under the attempt's deadline too.
func TestGatewayStalledUpstreamFailsOverWithinPerTryBudget(t *testing.T) {
	rows := []struct {
		name string
		// start opens the stalled node and counts the tries it sees.
		start func(t *testing.T, provider *testProvider) (addr string, tries *atomic.Int64)
	}{
		{"handler stalls", func(t *testing.T, provider *testProvider) (string, *atomic.Int64) {
			stalled := &stallHandler{id: "stalled"}
			stalled.stalled.Store(true)
			return startUpstream(t, provider, stalled), &stalled.hits
		}},
		{"handshake never completes", func(t *testing.T, _ *testProvider) (string, *atomic.Int64) {
			return silent(t)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			provider := newTestProvider("stall")
			stalledAddr, tries := row.start(t, provider)
			okAddr := startUpstream(t, provider, idHandler("ok"))

			view := NewView(testDomain, serving(stalledAddr), serving(okAddr))
			g, client := startGatewayRes(t, view, provider, Resilience{
				PerTryTimeout:  250 * time.Millisecond,
				BreakerOpenFor: time.Minute, // keep the tripped node out for the whole test
				BackoffBase:    time.Millisecond,
				BackoffMax:     4 * time.Millisecond,
			})

			// Every request must land on the healthy node within roughly
			// one per-try budget, whichever node the balancer tries first;
			// past six, requests go on until one has met the stalled node.
			for i := 0; i < 50 && (i < 6 || tries.Load() == 0); i++ {
				start := time.Now()
				body, status := get(t, client, "https://"+g.Addr()+"/")
				elapsed := time.Since(start)
				if status != http.StatusOK || body != "ok" {
					t.Fatalf("request %d: status=%d body=%q", i, status, body)
				}
				if elapsed > 1500*time.Millisecond {
					t.Fatalf("request %d took %v; failover must cost at most the per-try budget", i, elapsed)
				}
			}
			if tries.Load() == 0 {
				t.Fatal("no request met the stalled node")
			}
		})
	}
}

// silent opens a listener that accepts every connection and never
// writes a byte or closes it — a node whose handshake never completes —
// counting accepts.
func silent(t *testing.T) (addr string, accepts *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			n.Add(1)
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
	})
	return ln.Addr().String(), &n
}

// TestGatewayBreakerStopsPicksAfterTrip: consecutive transport failures
// must take a node out of rotation globally — before the breaker, the
// exclusion map was rebuilt per request, so a dead node kept receiving
// a connection attempt from every new request forever.
func TestGatewayBreakerStopsPicksAfterTrip(t *testing.T) {
	provider := newTestProvider("blackhole")

	deadAddr, accepts := blackhole(t)
	okAddr := startUpstream(t, provider, idHandler("ok"))

	view := NewView(testDomain, serving(deadAddr), serving(okAddr))
	g, client := startGatewayRes(t, view, provider, Resilience{
		BreakerFailures: 2,
		BreakerOpenFor:  time.Minute, // no probe re-entry during the test
		BackoffBase:     time.Millisecond,
		BackoffMax:      4 * time.Millisecond,
	})

	// Drive traffic until the breaker trips; every request still
	// succeeds by failing over to the healthy node.
	tripped := false
	for i := 0; i < 20 && !tripped; i++ {
		body, status := get(t, client, "https://"+g.Addr()+"/")
		if status != http.StatusOK || body != "ok" {
			t.Fatalf("request %d: status=%d body=%q", i, status, body)
		}
		s := g.Stats()
		tripped = len(s.BreakerOpen) == 1 && s.BreakerOpen[0] == deadAddr
	}
	if !tripped {
		t.Fatalf("breaker never tripped for %s: stats=%+v", deadAddr, g.Stats())
	}
	if s := g.Stats(); s.BreakerOpens == 0 {
		t.Fatalf("BreakerOpens = 0 after a trip: %+v", s)
	}

	// The tripped node must receive no further connection attempts from
	// client traffic (and no probes either — the dwell is a minute).
	before := accepts.Load()
	for i := 0; i < 20; i++ {
		body, status := get(t, client, "https://"+g.Addr()+"/")
		if status != http.StatusOK || body != "ok" {
			t.Fatalf("post-trip request %d: status=%d body=%q", i, status, body)
		}
	}
	if after := accepts.Load(); after != before {
		t.Fatalf("breaker-open node received %d connection attempts after the trip", after-before)
	}
}

// TestGatewayRetryAmplificationBounded: under a full-fleet blackhole,
// the total upstream attempts for one client request is the configured
// retry budget — not len(Serving()), which is what the pre-budget
// retry loop amplified to.
func TestGatewayRetryAmplificationBounded(t *testing.T) {
	for _, budget := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			provider := newTestProvider("amplify")

			// Five dead nodes: more than any budget in the table, so the
			// old walk-the-fleet behavior would exceed every bound here.
			const fleetSize = 5
			counters := make([]*atomic.Int64, fleetSize)
			eps := make([]fleet.Endpoint, fleetSize)
			for i := range eps {
				addr, accepts := blackhole(t)
				counters[i] = accepts
				eps[i] = serving(addr)
			}

			view := NewView(testDomain, eps...)
			g, client := startGatewayRes(t, view, provider, Resilience{
				RetryBudget:     budget,
				BreakerFailures: 100, // keep breakers out of the attempt count
				BackoffBase:     time.Millisecond,
				BackoffMax:      2 * time.Millisecond,
			})

			_, status := get(t, client, "https://"+g.Addr()+"/")
			if status != http.StatusBadGateway {
				t.Fatalf("status = %d, want 502 under a full blackhole", status)
			}
			var total int64
			for _, c := range counters {
				total += c.Load()
			}
			if total > int64(budget) {
				t.Fatalf("one request made %d upstream attempts, budget is %d", total, budget)
			}
			if total == 0 {
				t.Fatal("request made no upstream attempts at all")
			}
			if s := g.Stats(); s.Retries != total-1 {
				t.Fatalf("Retries = %d, want %d (attempts beyond the first)", s.Retries, total-1)
			}
		})
	}
}

// TestGatewayShedsOverload: beyond MaxInFlight the gateway answers 503
// + Retry-After immediately instead of queueing, and the shed is
// counted separately from failures.
func TestGatewayShedsOverload(t *testing.T) {
	provider := newTestProvider("overload")

	release := make(chan struct{})
	var entered atomic.Int64
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
		}
		_, _ = w.Write([]byte("done"))
	})
	addr := startUpstream(t, provider, slow)

	view := NewView(testDomain, serving(addr))
	g, client := startGatewayRes(t, view, provider, Resilience{
		MaxInFlight:   2,
		PerTryTimeout: 5 * time.Second,
	})

	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			body, status := get(t, client, "https://"+g.Addr()+"/")
			if status != http.StatusOK || body != "done" {
				results <- fmt.Errorf("held request: status=%d body=%q", status, body)
				return
			}
			results <- nil
		}()
	}
	waitFor(t, 5*time.Second, func() bool { return entered.Load() == 2 },
		"both held requests in flight")

	resp, err := client.Get("https://" + g.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 shed beyond MaxInFlight", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if s := g.Stats(); s.SheddedRequests == 0 {
		t.Fatalf("SheddedRequests = 0 after a shed: %+v", s)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
}

// TestGatewayPerUpstreamBoundSheds: a single upstream at its in-flight
// bound is skipped as saturated; when every paced re-pick finds only
// saturation, the request sheds rather than reporting upstream failure.
func TestGatewayPerUpstreamBoundSheds(t *testing.T) {
	provider := newTestProvider("saturate")

	release := make(chan struct{})
	var entered atomic.Int64
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
		}
		_, _ = w.Write([]byte("done"))
	})
	addr := startUpstream(t, provider, slow)

	view := NewView(testDomain, serving(addr))
	g, client := startGatewayRes(t, view, provider, Resilience{
		PerTryTimeout: 5 * time.Second,
		BackoffBase:   time.Millisecond,
		BackoffMax:    2 * time.Millisecond,
	}, func(g *Gateway) { g.perUpstream = 1 })

	held := make(chan error, 1)
	go func() {
		body, status := get(t, client, "https://"+g.Addr()+"/")
		if status != http.StatusOK || body != "done" {
			held <- fmt.Errorf("held request: status=%d body=%q", status, body)
			return
		}
		held <- nil
	}()
	waitFor(t, 5*time.Second, func() bool { return entered.Load() == 1 },
		"held request in flight")

	resp, err := client.Get("https://" + g.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 when the only upstream is saturated", resp.StatusCode)
	}

	close(release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

// TestGatewayDeadlineHeaderPropagation: an inbound deadline below
// minDeadline sheds without an upstream attempt; a workable one reaches
// the node rewritten to the attempt's carved budget. It shortens the
// gateway's 15 s bound and never lengthens it, however large — the
// largest int64 once wrapped to -1 ms and was shed — and an unusable one
// takes the default. With one attempt, an hour-long per-try ceiling and
// a stopped clock, the carved budget is the request's bound exactly.
func TestGatewayDeadlineHeaderPropagation(t *testing.T) {
	provider := newTestProvider("deadline")

	var sawBudget atomic.Int64
	echo := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ms, err := strconv.ParseInt(r.Header.Get(DeadlineHeader), 10, 64); err == nil {
			sawBudget.Store(ms)
		}
		_, _ = w.Write([]byte("ok"))
	})
	addr := startUpstream(t, provider, echo)
	view := NewView(testDomain, serving(addr))
	now := time.Now()
	g, client := startGatewayRes(t, view, provider, Resilience{
		RetryBudget:   1,
		PerTryTimeout: time.Hour,
		Now:           func() time.Time { return now },
	})

	for _, tc := range []struct {
		header string
		status int
		budget time.Duration // what the node is sent; 0 when nothing is
	}{
		{"1", http.StatusServiceUnavailable, 0},
		{"5000", http.StatusOK, 5 * time.Second},
		{"15001", http.StatusOK, 15 * time.Second},
		{"9223372036854775807", http.StatusOK, 15 * time.Second},
		{"abc", http.StatusOK, requestTimeout},
		{"-5", http.StatusOK, requestTimeout},
	} {
		sawBudget.Store(0)
		req, err := http.NewRequest(http.MethodGet, "https://"+g.Addr()+"/", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(DeadlineHeader, tc.header)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.header, resp.StatusCode, tc.status)
		}
		if got := sawBudget.Load(); got != tc.budget.Milliseconds() {
			t.Errorf("%s: the node was sent %d ms of budget, want %d", tc.header, got, tc.budget.Milliseconds())
		}
	}
}

// TestGatewayProbeReadmitsRecoveredUpstream: a tripped node re-enters
// rotation only through a successful health probe — and while open it
// receives probes only, never client traffic.
func TestGatewayProbeReadmitsRecoveredUpstream(t *testing.T) {
	provider := newTestProvider("probe")

	flaky := &stallHandler{id: "flaky"}
	flaky.stalled.Store(true)
	flakyAddr := startUpstream(t, provider, flaky)
	okAddr := startUpstream(t, provider, idHandler("ok"))

	view := NewView(testDomain, serving(flakyAddr), serving(okAddr))
	g, client := startGatewayRes(t, view, provider, Resilience{
		PerTryTimeout:   150 * time.Millisecond,
		BreakerFailures: 2,
		BreakerOpenFor:  50 * time.Millisecond,
		ProbeInterval:   20 * time.Millisecond,
		BackoffBase:     time.Millisecond,
		BackoffMax:      4 * time.Millisecond,
	})

	// Trip the stalled node's breaker through normal traffic.
	for i := 0; i < 20; i++ {
		if _, status := get(t, client, "https://"+g.Addr()+"/"); status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
		if s := g.Stats(); len(s.BreakerOpen) == 1 && s.BreakerOpen[0] == flakyAddr {
			break
		}
	}
	if s := g.Stats(); len(s.BreakerOpen) != 1 || s.BreakerOpen[0] != flakyAddr {
		t.Fatalf("breaker never tripped: %+v", s)
	}

	// While still stalled, probes run and fail: the node stays open and
	// sees no client traffic (the stall handler counts non-probe hits).
	clientHits := flaky.hits.Load()
	waitFor(t, 3*time.Second, func() bool { return g.Stats().ProbeFailures > 0 },
		"failed probes against the still-stalled node")
	for i := 0; i < 10; i++ {
		if body, status := get(t, client, "https://"+g.Addr()+"/"); status != http.StatusOK || body != "ok" {
			t.Fatalf("request during open state: status=%d body=%q", status, body)
		}
	}
	if n := flaky.hits.Load(); n != clientHits {
		t.Fatalf("breaker-open node received %d client requests (probes only allowed)", n-clientHits)
	}

	// Recover the node: the next successful probe closes the breaker and
	// traffic returns.
	flaky.stalled.Store(false)
	waitFor(t, 5*time.Second, func() bool { return len(g.Stats().BreakerOpen) == 0 },
		"breaker to close after recovery")
	if s := g.Stats(); s.ProbeSuccesses == 0 {
		t.Fatalf("breaker closed without a successful probe: %+v", s)
	}
	waitFor(t, 5*time.Second, func() bool {
		_, status := get(t, client, "https://"+g.Addr()+"/")
		if status != http.StatusOK {
			t.Fatalf("post-recovery request: status %d", status)
		}
		return flaky.hits.Load() > clientHits
	}, "recovered node to receive client traffic again")
}

// TestGatewayProbeTickDropsDepartedUpstream: an idle gateway learns of a
// removal from its probe tick. With no request (and no Stats call) after
// the removal, the tick pulls the new view before it picks due
// upstreams, so the departed node — breaker open, probe due — is not
// probed again and Stats no longer lists it.
func TestGatewayProbeTickDropsDepartedUpstream(t *testing.T) {
	provider := newTestProvider("departed")

	deadAddr, _ := blackhole(t)
	okAddr := startUpstream(t, provider, idHandler("ok"))
	view := NewView(testDomain, serving(deadAddr), serving(okAddr))
	const tick = 10 * time.Millisecond
	g, client := startGatewayRes(t, view, provider, Resilience{
		PerTryTimeout:   150 * time.Millisecond,
		BreakerFailures: 2,
		BreakerOpenFor:  20 * time.Millisecond,
		ProbeInterval:   tick,
		BackoffBase:     time.Millisecond,
		BackoffMax:      4 * time.Millisecond,
	})

	// Trip the dead node's breaker through traffic, then watch the probe
	// loop work on it: only the dead node can fail a probe.
	for i := 0; i < 20 && len(g.Stats().BreakerOpen) == 0; i++ {
		if _, status := get(t, client, "https://"+g.Addr()+"/"); status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
	}
	if s := g.Stats(); len(s.BreakerOpen) != 1 || s.BreakerOpen[0] != deadAddr {
		t.Fatalf("breaker never tripped: %+v", s)
	}
	waitFor(t, 3*time.Second, func() bool { return g.probeFail.Load() > 0 },
		"probes against the dead node")
	g.mu.Lock()
	dead := g.ups[deadAddr]
	g.mu.Unlock()

	// Remove it, and from here on leave the gateway alone: the tick is
	// the only thing that can consume the new view.
	view.Set(serving(okAddr))
	waitFor(t, 3*time.Second, func() bool { return view.consumedBy(g) },
		"the probe tick to pull the new view")
	// A probe claimed by an earlier tick may still be in flight; it holds
	// the breaker half-open until it reports.
	waitFor(t, 3*time.Second, func() bool { return dead.breaker.State() == breakerOpen },
		"the last in-flight probe to settle")

	probes := g.probeFail.Load() + g.probeOK.Load()
	time.Sleep(10 * tick) // several dwells and ticks: a kept upstream would be probed again
	if n := g.probeFail.Load() + g.probeOK.Load(); n != probes {
		t.Errorf("%d probes sent after the node left the view", n-probes)
	}
	if s := g.Stats(); len(s.BreakerOpen) != 0 {
		t.Errorf("Stats lists a departed upstream: BreakerOpen = %v", s.BreakerOpen)
	}
}

var startedByGateway = regexp.MustCompile(`created by revelio/internal/gateway\.(New|\(\*Gateway\))`)

// gatewayGoroutines counts live goroutines started by New or by any
// Gateway method.
func gatewayGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return len(startedByGateway.FindAll(buf, -1))
}

// TestGatewayNewStartsOneGoroutine: New starts the probe loop and
// nothing else — no view watcher — and Close stops it.
func TestGatewayNewStartsOneGoroutine(t *testing.T) {
	// Earlier tests' listeners wind down asynchronously after Close.
	waitFor(t, 5*time.Second, func() bool { return gatewayGoroutines() == 0 },
		"goroutines of earlier gateways to exit")
	g, err := New(Config{Source: NewView(testDomain), Verifier: newTestProvider("goroutines")})
	if err != nil {
		t.Fatal(err)
	}
	if n := gatewayGoroutines(); n != 1 {
		g.Close()
		t.Fatalf("New started %d goroutines, want 1 (the probe loop)", n)
	}
	g.Close()
	waitFor(t, 5*time.Second, func() bool { return gatewayGoroutines() == 0 },
		"the probe loop to exit after Close")
}

// TestResilienceDefaults pins the documented knob table: the zero
// Resilience takes every default, and a gateway built from it trips an
// upstream's breaker after exactly three failed observations.
func TestResilienceDefaults(t *testing.T) {
	r := Resilience{}.withDefaults()
	for _, c := range []struct {
		knob      string
		got, want any
	}{
		{"RetryBudget", r.RetryBudget, 3},
		{"PerTryTimeout", r.PerTryTimeout, 2 * time.Second},
		{"BackoffBase", r.BackoffBase, 5 * time.Millisecond},
		{"BackoffMax", r.BackoffMax, 100 * time.Millisecond},
		{"BreakerFailures", r.BreakerFailures, 3},
		{"BreakerOpenFor", r.BreakerOpenFor, 500 * time.Millisecond},
		{"ProbeInterval", r.ProbeInterval, 250 * time.Millisecond},
		{"MaxInFlight", r.MaxInFlight, 1024},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.knob, c.got, c.want)
		}
	}
	if r.Now == nil {
		t.Error("Now has no default")
	}

	const addr = "127.0.0.1:1"
	g, err := New(Config{Source: NewView(testDomain, serving(addr)), Verifier: newTestProvider("defaults")})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.mu.Lock()
	up := g.ups[addr]
	g.mu.Unlock()
	for i := 1; i <= 3; i++ {
		if tripped := up.breaker.Observe(true); tripped != (i == 3) {
			t.Fatalf("failure %d: tripped = %v, want the breaker to open on the third", i, tripped)
		}
	}
}

// fakeClock is an injectable clock for deterministic dwell tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// newTestBreaker builds a breaker over a defaulted copy of res, as
// sync does over the gateway's.
func newTestBreaker(res Resilience) *breaker {
	res = res.withDefaults()
	return &breaker{res: &res}
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := newTestBreaker(Resilience{BreakerFailures: 3, BreakerOpenFor: time.Second, Now: clk.Now})

	if !b.Allow() {
		t.Fatal("fresh breaker must allow traffic")
	}
	if b.Observe(true) {
		t.Fatal("first failure must not trip")
	}
	if b.Observe(true) {
		t.Fatal("second failure must not trip")
	}
	if !b.Observe(true) {
		t.Fatal("third consecutive failure must trip")
	}
	if b.Allow() {
		t.Fatal("open breaker must not allow traffic")
	}
	if got := b.State(); got != breakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
}

func TestBreakerSuccessResetsRun(t *testing.T) {
	b := newTestBreaker(Resilience{BreakerFailures: 2})
	b.Observe(true)
	b.Observe(false) // a success resets the consecutive run
	if b.Observe(true) {
		t.Fatal("failure after reset must not trip at threshold 2")
	}
	if !b.Observe(true) {
		t.Fatal("second consecutive failure must trip")
	}
}

func TestBreakerIgnoresObservationsWhileNotClosed(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := newTestBreaker(Resilience{BreakerFailures: 1, BreakerOpenFor: time.Second, Now: clk.Now})
	b.Observe(true)
	// Straggler success from an attempt admitted before the trip must not
	// silently close the breaker — re-entry is the probe's decision.
	b.Observe(false)
	if got := b.State(); got != breakerOpen {
		t.Fatalf("state after straggler success = %v, want open", got)
	}
}

func TestBreakerProbeLifecycle(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := newTestBreaker(Resilience{BreakerFailures: 1, BreakerOpenFor: time.Second, Now: clk.Now})
	b.Observe(true)

	if b.ProbeDue() {
		t.Fatal("probe must not be due before the open dwell elapses")
	}
	clk.Advance(time.Second)
	if !b.ProbeDue() {
		t.Fatal("probe must be due after the dwell")
	}
	if b.ProbeDue() {
		t.Fatal("only one caller may claim the probe")
	}
	if got := b.State(); got != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	if b.Allow() {
		t.Fatal("half-open breaker must not admit regular traffic")
	}

	// Failed probe restarts the dwell.
	if b.ProbeResult(false) {
		t.Fatal("failed probe must not close the breaker")
	}
	if b.ProbeDue() {
		t.Fatal("dwell must restart after a failed probe")
	}
	clk.Advance(time.Second)
	if !b.ProbeDue() {
		t.Fatal("probe must be due after the restarted dwell")
	}
	if !b.ProbeResult(true) {
		t.Fatal("successful probe must close the breaker")
	}
	if !b.Allow() {
		t.Fatal("closed breaker must admit traffic again")
	}

	// ProbeResult outside half-open is a no-op.
	if b.ProbeResult(false) {
		t.Fatal("ProbeResult while closed must be ignored")
	}
	if got := b.State(); got != breakerClosed {
		t.Fatalf("state = %v, want closed", got)
	}
}

func TestBackoffDeterministicUnderInjectedRand(t *testing.T) {
	const base, limit = 8 * time.Millisecond, 20 * time.Millisecond
	// Equal jitter: half fixed, half scaled by u. The exponential step
	// doubles from base and caps at limit: retry 1 → 8ms, 2 → 16ms,
	// 3+ → 20ms.
	cases := []struct {
		retry int
		u     float64
		want  time.Duration
	}{
		{1, 0, 4 * time.Millisecond},                            // 8/2 + 0*4
		{2, 0.5, 12 * time.Millisecond},                         // 16/2 + 0.5*8
		{3, 0.999, 10*time.Millisecond + 9990*time.Microsecond}, // 20/2 + .999*10
		{4, 0, 10 * time.Millisecond},                           // capped at limit
		{0, 0.5, 4*time.Millisecond + 2*time.Millisecond},       // as retry 1
	}
	for _, c := range cases {
		if got := backoff(c.retry, base, limit, c.u); got != c.want {
			t.Fatalf("backoff(%d, u=%v) = %v, want %v", c.retry, c.u, got, c.want)
		}
	}
}

func TestBackoffNeverZeroAndBounded(t *testing.T) {
	const base, limit = 2 * time.Millisecond, 50 * time.Millisecond
	for retry := 1; retry <= 12; retry++ {
		for _, u := range []float64{0, 0.5, math.Nextafter(1, 0)} {
			d := backoff(retry, base, limit, u)
			if d <= 0 {
				t.Fatalf("backoff(%d, u=%v) = %v, must be positive", retry, u, d)
			}
			if d > limit {
				t.Fatalf("backoff(%d, u=%v) = %v exceeds the cap", retry, u, d)
			}
		}
	}
}

// TestCarveTry: an attempt's budget is its share of the remaining
// deadline, capped at the per-try ceiling and floored at 1ms. A deadline
// that has already passed gets the floor: every request has one, so
// remaining <= 0 never means "no deadline" and never earns the ceiling.
func TestCarveTry(t *testing.T) {
	cases := []struct {
		name         string
		perTry       time.Duration
		remaining    time.Duration
		attemptsLeft int
		want         time.Duration
	}{
		{"deadline reached", 2 * time.Second, 0, 1, time.Millisecond},
		{"deadline passed", 2 * time.Second, -time.Second, 3, time.Millisecond},
		{"ample deadline", 2 * time.Second, 30 * time.Second, 3, 2 * time.Second},
		{"tight deadline splits", 2 * time.Second, 3 * time.Second, 3, time.Second},
		{"single attempt gets remainder", 2 * time.Second, 1500 * time.Millisecond, 1, 1500 * time.Millisecond},
		{"floor at 1ms", 2 * time.Second, 100 * time.Microsecond, 2, time.Millisecond},
		{"attemptsLeft clamped", 2 * time.Second, time.Second, 0, time.Second},
	}
	for _, c := range cases {
		if got := carve(c.perTry, c.remaining, c.attemptsLeft); got != c.want {
			t.Fatalf("%s: carve(%v, %v, %d) = %v, want %v",
				c.name, c.perTry, c.remaining, c.attemptsLeft, got, c.want)
		}
	}
}

// TestAdmissionBound: admit holds at most MaxInFlight requests, admits
// again once a slot is given back, and a deadline shed keeps no slot.
func TestAdmissionBound(t *testing.T) {
	g := &Gateway{res: Resilience{MaxInFlight: 2}.withDefaults()}
	req := httptest.NewRequest(http.MethodGet, "http://gw/", nil)
	admit := func() bool {
		_, err := g.admit(req)
		return err == nil
	}
	if !admit() || !admit() {
		t.Fatal("admit must admit up to its bound")
	}
	if admit() {
		t.Fatal("admit must refuse beyond its bound")
	}
	g.inFlight.Add(-1)
	if !admit() {
		t.Fatal("admit must admit again after a release")
	}
	g.inFlight.Add(-2)

	dead := httptest.NewRequest(http.MethodGet, "http://gw/", nil)
	dead.Header.Set(DeadlineHeader, "1")
	if _, err := g.admit(dead); err == nil {
		t.Fatal("a 1ms deadline must shed")
	}
	if got := g.inFlight.Load(); got != 0 {
		t.Fatalf("in flight = %d, want 0", got)
	}
}

func TestAdmissionConcurrentNeverExceedsBound(t *testing.T) {
	const bound = 8
	g := &Gateway{res: Resilience{MaxInFlight: bound}.withDefaults()}
	req := httptest.NewRequest(http.MethodGet, "http://gw/", nil)
	var wg sync.WaitGroup
	var holders, violations atomic.Int64
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if _, err := g.admit(req); err != nil {
					continue
				}
				if holders.Add(1) > bound {
					violations.Add(1)
				}
				holders.Add(-1)
				g.inFlight.Add(-1)
			}
		}()
	}
	wg.Wait()
	if n := violations.Load(); n > 0 {
		t.Fatalf("admitted holders exceeded the bound %d times", n)
	}
	if got := g.inFlight.Load(); got != 0 {
		t.Fatalf("in flight after drain = %d, want 0", got)
	}
}
