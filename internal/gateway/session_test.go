package gateway

import (
	"crypto/tls"
	"io"
	"net/http"
	"net/http/httptest"
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
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "http://gw/", nil)
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("proxied request: status %d, body %q", rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// TestGatewayUpstreamHandshakesAreFullAndVerified: the gateway keeps no
// upstream TLS sessions, so every connection it opens to a node — here,
// each one after its idle pool was closed — is a full handshake (the
// node sees DidResume false), and the verifier judges the node's
// evidence each time.
func TestGatewayUpstreamHandshakesAreFullAndVerified(t *testing.T) {
	provider := newTestProvider("full-tee")
	addr := startUpstream(t, provider, resumeHandler())
	view := NewView(testDomain, serving(addr))
	g, err := New(Config{Source: view, Verifier: provider})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	for i := 0; i < 3; i++ {
		g.transport.CloseIdleConnections()
		before := provider.verified.Load()
		if got := proxyOnce(t, g); got != "full" {
			t.Fatalf("connection %d: the node saw a %s handshake, want full", i, got)
		}
		if n := provider.verified.Load() - before; n != 1 {
			t.Fatalf("connection %d: the evidence was judged %d times, want 1", i, n)
		}
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
