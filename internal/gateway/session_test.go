package gateway

import (
	"bytes"
	"crypto/tls"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// resumeHandler reports whether the upstream connection carrying the
// request was a resumed TLS session.
func resumeHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.TLS != nil && r.TLS.DidResume {
			_, _ = io.WriteString(w, "resumed")
			return
		}
		_, _ = io.WriteString(w, "full")
	})
}

// proxyOnce drives one request through the gateway handler directly (no
// downstream listener needed) and returns the upstream's body.
func proxyOnce(t *testing.T, g *Gateway) string {
	t.Helper()
	return proxyPath(t, g, "/")
}

// proxyPath is proxyOnce for a GET of path.
func proxyPath(t *testing.T, g *Gateway, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "http://gw"+path, nil)
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("proxied request: status %d, body %q", rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// countDials is a startUpstreamWith tune that counts the connections the
// node accepts.
func countDials(n *atomic.Int64) func(*http.Server) {
	return func(srv *http.Server) {
		srv.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				n.Add(1)
			}
		}
	}
}

// TestGatewayUpstreamHandshakesAreFullAndVerified: the gateway keeps no
// upstream TLS sessions, so every connection it opens to a node — here,
// each one after its idle pool was closed — is a full handshake (the
// node sees DidResume false), and the verifier judges the node's
// evidence each time. Pooling is real: sequential requests share one
// connection, dialled and judged once, until a policy-epoch bump closes
// it and the next request dials and is judged once more.
func TestGatewayUpstreamHandshakesAreFullAndVerified(t *testing.T) {
	provider := newTestProvider("full-tee")
	var dials atomic.Int64
	addr := startUpstreamWith(t, provider, resumeHandler(), countDials(&dials))
	view := NewView(testDomain, serving(addr))
	g, err := New(Config{Source: view, Verifier: provider})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	for i := 0; i < 3; i++ {
		g.pool.closeIdle()
		before := provider.verified.Load()
		if got := proxyOnce(t, g); got != "full" {
			t.Fatalf("connection %d: the node saw a %s handshake, want full", i, got)
		}
		if n := provider.verified.Load() - before; n != 1 {
			t.Fatalf("connection %d: the evidence was judged %d times, want 1", i, n)
		}
	}

	g.pool.closeIdle()
	dialed, judged := dials.Load(), provider.verified.Load()
	sequential := func(round string, want int64) {
		t.Helper()
		for i := 0; i < 5; i++ {
			proxyOnce(t, g)
		}
		if d, j := dials.Load()-dialed, provider.verified.Load()-judged; d != want || j != want {
			t.Fatalf("%s: %d dials and %d judgments in all, want %d of each", round, d, j, want)
		}
	}
	sequential("5 sequential requests", 1)
	provider.rev.Add(1)
	sequential("5 more after a policy-epoch bump", 2)
}

// TestGatewayRedialsAStaleIdleConnection: a node may hang up a keep-alive
// connection while it sits idle in the gateway's pool. The next request
// is still served — a reused connection that fails before any answer is
// redialled once for a request that can be sent again — and that redial
// is neither a gateway retry nor a failure the breaker counts.
func TestGatewayRedialsAStaleIdleConnection(t *testing.T) {
	provider := newTestProvider("stale-idle")
	addr := startUpstreamWith(t, provider, idHandler("ok"), func(srv *http.Server) {
		srv.ConnState = func(c net.Conn, s http.ConnState) {
			if s == http.StateIdle {
				_ = c.Close() // hang up on every connection once it goes idle
			}
		}
	})
	g, err := New(Config{Source: NewView(testDomain, serving(addr)), Verifier: provider})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	for i := 0; i < 4; i++ {
		if got := proxyOnce(t, g); got != "ok" {
			t.Fatalf("request %d: body %q, want ok", i, got)
		}
	}
	s := g.Stats()
	if s.Retries != 0 || len(s.BreakerOpen) != 0 {
		t.Errorf("Retries = %d, breaker-open %v; want 0 and none", s.Retries, s.BreakerOpen)
	}
	g.mu.Lock()
	b := g.ups[addr].breaker
	g.mu.Unlock()
	b.mu.Lock()
	failures := b.consecutive
	b.mu.Unlock()
	if failures != 0 {
		t.Errorf("the breaker counted %d failures, want 0", failures)
	}
}

// TestGatewayRelaysAnEarlyAnswer: a node may answer before it has read
// the request body — here a 413 from http.MaxBytesReader to a PUT far
// larger than the node reads. The client gets that answer, not a 502
// for the upload the node cut short.
func TestGatewayRelaysAnEarlyAnswer(t *testing.T) {
	provider := newTestProvider("early-answer")
	addr := startUpstream(t, provider, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<10)); err != nil {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		_, _ = io.WriteString(w, "stored")
	}))
	g, err := New(Config{Source: NewView(testDomain, serving(addr)), Verifier: provider})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	rec := httptest.NewRecorder()
	body := bytes.NewReader(bytes.Repeat([]byte{'x'}, 4<<20))
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "http://gw/pad", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, body %q; want the node's 413", rec.Code, rec.Body.String())
	}
}

// TestGatewayDownstreamTicketRotation: the downstream listener's
// session-ticket key rotates on a policy-epoch bump, so a client ticket
// minted before the bump stops resuming — and resumption recovers under
// the new key.
func TestGatewayDownstreamTicketRotation(t *testing.T) {
	provider := newTestProvider("ticket-tee")
	addr := startUpstream(t, provider, idHandler("ok"))
	view := NewView(testDomain, serving(addr))
	g, _ := startGateway(t, view, provider)

	// A dedicated client with a session cache; resp.TLS reports whether
	// its connection's handshake was resumed.
	tr := &http.Transport{
		TLSClientConfig: &tls.Config{
			InsecureSkipVerify: true, //nolint:gosec // test client
			ClientSessionCache: tls.NewLRUClientSessionCache(8),
		},
	}
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	t.Cleanup(client.CloseIdleConnections)

	resumed := func() bool {
		t.Helper()
		tr.CloseIdleConnections()
		resp, err := client.Get("https://" + g.Addr() + "/")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return resp.TLS != nil && resp.TLS.DidResume
	}

	if resumed() {
		t.Fatal("first downstream handshake cannot be resumed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !resumed() {
		if time.Now().After(deadline) {
			t.Fatal("downstream session never resumed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Bump policy and let a proxied request observe it — that request
	// rotates the ticket key. The client's outstanding ticket must then
	// die: the next reconnect is a full handshake.
	provider.rev.Add(1)
	proxyOnce(t, g)
	if resumed() {
		t.Fatal("pre-bump ticket resumed after the policy-epoch rotation")
	}
	// And the new key mints working tickets again.
	deadline = time.Now().Add(5 * time.Second)
	for !resumed() {
		if time.Now().After(deadline) {
			t.Fatal("downstream resumption never recovered after rotation")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
