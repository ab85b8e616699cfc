package gateway

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"revelio/internal/fleet"
)

// TestGatewayStripsClientForwardedFor: the gateway is the trust
// boundary, so an X-Forwarded-For supplied by the outside client must
// never reach the nodes. Regression: forward() used to append the
// gateway-observed address to the inbound header, letting any client
// spoof an arbitrary source-IP chain past the proxy.
func TestGatewayStripsClientForwardedFor(t *testing.T) {
	provider := newTestProvider("xff")

	echo := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, r.Header.Get("X-Forwarded-For"))
	})
	view := NewView(testDomain, serving(startUpstream(t, provider, echo)))
	g, client := startGateway(t, view, provider)

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

// TestGatewayAbortsTruncatedResponse: when the upstream dies mid-body,
// the gateway must tear the downstream connection down rather than let
// its server finish the response encoding. Regression: the copy error
// was swallowed, so clients saw a clean 200 with a silently truncated
// body.
func TestGatewayAbortsTruncatedResponse(t *testing.T) {
	provider := newTestProvider("truncate")

	trunc := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "partial")
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
	view := NewView(testDomain, serving(startUpstream(t, provider, trunc)))
	g, client := startGateway(t, view, provider)

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
	provider := newTestProvider("sorted")
	g, err := New(Config{Source: NewView(testDomain), Verifier: provider})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	g.mu.Lock()
	for _, addr := range []string{"9.9.9.9:1", "1.1.1.1:1", "5.5.5.5:1"} {
		up := &upstream{
			ep:      fleet.Endpoint{UpstreamAddr: addr},
			breaker: &breaker{res: &g.res},
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

// roundTripFunc stands in for the connection pool behind the Gateway.rt
// seam.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) roundTrip(_ context.Context, r *http.Request, _, _ time.Time) (*http.Response, error) {
	return f(r)
}

// okResponse is a 200 carrying body.
func okResponse(body string) *http.Response {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     make(http.Header),
		Body:       io.NopCloser(strings.NewReader(body)),
	}
}

// TestGatewayNeverServesATimedOutAttempt: a response that arrives after
// its attempt's per-try budget ran out belongs to a request the gateway
// had already given up on, and is not served. Regression: a stalled
// node answers the abandoned request — the empty 200 its handler writes
// once its request context ends — and a per-try timer racing the
// response let the client get status 200 with an empty body while the
// breaker counted a success. The node here is a real stalled RA-TLS
// upstream: the attempt's clock is its connection's deadline, so the
// late answer is never read.
func TestGatewayNeverServesATimedOutAttempt(t *testing.T) {
	provider := newTestProvider("late")
	stalled := &stallHandler{id: "stalled"}
	stalled.stalled.Store(true)
	stalledAddr := startUpstream(t, provider, stalled)
	healthyAddr := startUpstream(t, provider, idHandler("ok"))
	g, err := New(Config{
		Source:   NewView(testDomain, serving(stalledAddr), serving(healthyAddr)),
		Verifier: provider,
		// The budget covers a real RA-TLS handshake, slow under -race.
		Resilience: Resilience{
			PerTryTimeout: 250 * time.Millisecond,
			BackoffBase:   time.Millisecond,
			BackoffMax:    2 * time.Millisecond,
			ProbeInterval: time.Hour,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// Which node an attempt tries first is the balancer's choice; send
	// requests until one has met the stalled node.
	for i := 0; i < 50 && stalled.hits.Load() == 0; i++ {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "http://gw/", nil))
		if rec.Code != http.StatusOK || rec.Body.String() != "ok" {
			t.Fatalf("request %d: status=%d body=%q, want the healthy node's ok", i, rec.Code, rec.Body.String())
		}
	}
	if n := stalled.hits.Load(); n != 1 {
		t.Fatalf("the stalled node was tried %d times, want 1", n)
	}
	if s := g.Stats(); s.Retries != 1 {
		t.Errorf("Retries = %d, want 1: the timed-out attempt is retried on the healthy node", s.Retries)
	}
}

// TestGatewayProbeNeverCountsATimedOutAnswer: the health probe is timed
// like an attempt. A stalled node answers an abandoned probe with an
// empty 200; counted as a success, it closed the breaker and put the
// stalled node back in rotation — how TestGatewayProbeReadmitsRecoveredUpstream
// missed its window under load. Driven against a real stalled RA-TLS
// upstream, as TestGatewayNeverServesATimedOutAttempt is.
func TestGatewayProbeNeverCountsATimedOutAnswer(t *testing.T) {
	provider := newTestProvider("late-probe")
	stalledNode := &stallHandler{id: "stalled"}
	stalledNode.stalled.Store(true)
	stalled := startUpstream(t, provider, stalledNode)
	var elapsed atomic.Int64
	start := time.Now()
	g, err := New(Config{
		Source:   NewView(testDomain, serving(stalled)),
		Verifier: provider,
		Resilience: Resilience{
			PerTryTimeout:   250 * time.Millisecond,
			BreakerFailures: 1,
			ProbeInterval:   time.Hour,
			Now:             func() time.Time { return start.Add(time.Duration(elapsed.Load())) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.mu.Lock()
	up := g.ups[stalled]
	g.mu.Unlock()
	up.breaker.Observe(true)
	elapsed.Store(int64(time.Hour))
	if !up.breaker.ProbeDue() {
		t.Fatal("no probe due after the open dwell")
	}
	g.probe(up, testDomain)
	if s := g.Stats(); s.ProbeSuccesses != 0 || s.ProbeFailures != 1 || len(s.BreakerOpen) != 1 {
		t.Errorf("probe answered after its deadline: %d successes, %d failures, breaker-open %v; want 0, 1 and the node",
			s.ProbeSuccesses, s.ProbeFailures, s.BreakerOpen)
	}
}

// TestGatewayNeverSendsAPassedDeadlineTheFullBudget: the node is never
// sent more budget than the request has left. Regression: the attempt
// judged the deadline on one clock reading and carved its budget from a
// second one, and a carve that found the deadline already passed read
// that as "no deadline" and armed the full 2s per-try budget. The clock
// here moves 5ms per reading, so the two readings straddled the end of a
// 10ms request.
func TestGatewayNeverSendsAPassedDeadlineTheFullBudget(t *testing.T) {
	const addr = "127.0.0.1:1"
	var reads atomic.Int64
	start := time.Now()
	g, err := New(Config{
		Source:   NewView(testDomain, serving(addr)),
		Verifier: newTestProvider("passed-deadline"),
		Resilience: Resilience{
			ProbeInterval: time.Hour,
			Now:           func() time.Time { return start.Add(time.Duration(reads.Add(1)) * 5 * time.Millisecond) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var sent string
	g.rt = roundTripFunc(func(r *http.Request) (*http.Response, error) {
		sent = r.Header.Get(DeadlineHeader)
		return okResponse("ok"), nil
	})

	req := httptest.NewRequest(http.MethodGet, "http://gw/", nil)
	req.Header.Set(DeadlineHeader, "10")
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 from the node", rec.Code)
	}
	if ms, err := strconv.Atoi(sent); err != nil || ms > 10 {
		t.Errorf("the node was sent %s = %q, want at most the request's 10 ms", DeadlineHeader, sent)
	}
}
