package gateway

import (
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"revelio/internal/fleet"
	"revelio/internal/resilience"
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
