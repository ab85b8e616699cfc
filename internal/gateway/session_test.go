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

// upstreamAfterRedial drops the gateway's warm connections and proxies
// once, so the answer reflects a fresh upstream handshake — resumed if
// the session cache supplied a ticket, full otherwise.
func upstreamAfterRedial(t *testing.T, g *Gateway) string {
	t.Helper()
	g.transport.CloseIdleConnections()
	return proxyOnce(t, g)
}

// TestGatewayUpstreamSessionResumption: the gateway's upstream transport
// actually resumes TLS sessions across its pooled connections — and a
// resumed handshake still re-judges the node's evidence, so resumption
// never skips the attestation verdict.
func TestGatewayUpstreamSessionResumption(t *testing.T) {
	provider := newTestProvider("resume-tee")
	addr := startUpstream(t, provider, resumeHandler())
	view := NewView(testDomain, serving(addr))
	g, err := New(Config{Source: view, Verifier: provider})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	if got := proxyOnce(t, g); got != "full" {
		t.Fatalf("first handshake: got %q, want full", got)
	}
	// The session ticket arrives asynchronously after the handshake;
	// poll briefly for the first resumed reconnect.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := upstreamAfterRedial(t, g); got == "resumed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("upstream session never resumed across the pooled transport")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGatewayUpstreamResumptionEpochFence: a cached upstream session
// must not survive a policy-revision bump. Without the epoch fence on
// the ClientSessionCache this fails — the post-bump reconnect would
// resume the pre-bump session and skip the full evidence handshake.
func TestGatewayUpstreamResumptionEpochFence(t *testing.T) {
	provider := newTestProvider("fence-tee")
	addr := startUpstream(t, provider, resumeHandler())
	view := NewView(testDomain, serving(addr))
	g, err := New(Config{Source: view, Verifier: provider})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// Reach steady resumption first, so the fence — not a missing
	// ticket — is what forces the post-bump full handshake.
	if got := proxyOnce(t, g); got != "full" {
		t.Fatalf("first handshake: got %q, want full", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := upstreamAfterRedial(t, g); got == "resumed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never reached steady resumption")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Bump the provider's policy revision. The next proxied request
	// notices the epoch move, flushes pools and sessions, and the
	// reconnect must prove itself with a full handshake.
	provider.rev.Add(1)
	if got := upstreamAfterRedial(t, g); got != "full" {
		t.Fatalf("post-bump handshake: got %q, want full (resumed session crossed the policy fence)", got)
	}
	// Resumption is fenced, not disabled: under the new epoch it works
	// again.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if got := upstreamAfterRedial(t, g); got == "resumed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("resumption never recovered under the new epoch")
		}
		time.Sleep(10 * time.Millisecond)
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
