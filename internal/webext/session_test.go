package webext

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"

	"revelio/internal/browser"
	"revelio/internal/core"
	"revelio/internal/netlab"
)

// startPhisher is the §5.3.2 attacker: a server holding a CA-valid
// certificate for the attested domain under its own key. It counts the
// requests that reach its handler.
func startPhisher(t *testing.T, d *core.Deployment) (addr string, requests *atomic.Int64) {
	t.Helper()
	requests = new(atomic.Int64)
	addr = startTLSSite(t, d, domain, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		requests.Add(1)
		_, _ = w.Write([]byte("phish"))
	}))
	return addr, requests
}

// newRelayedClientSide puts a relay — the network path, counting the
// connections opened through it — between the browser and node 0.
func newRelayedClientSide(t *testing.T, d *core.Deployment) (*browser.Browser, *Extension, *netlab.Relay) {
	t.Helper()
	relay, err := netlab.NewRelay(context.Background(), d.Nodes[0].WebAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(relay.Close)
	b := browser.New(d.CARootPool(), 0)
	t.Cleanup(b.Close)
	b.Resolve(domain, relay.Addr())
	ext := New(b, d.Verifier)
	ext.RegisterSite(domain, d.Golden)
	return b, ext, relay
}

// TestSessionRidesOneConnection: the attestation's two fetches and
// every later navigation of the session share one TLS connection, and
// each response is still validated against the pinned key.
func TestSessionRidesOneConnection(t *testing.T) {
	d := newDeployment(t, 1)
	_, ext, relay := newRelayedClientSide(t, d)
	for i := 0; i < 5; i++ {
		_, m, err := ext.Navigate(context.Background(), domain, "/")
		if err != nil {
			t.Fatalf("navigation %d: %v", i, err)
		}
		if m.Attested != (i == 0) {
			t.Errorf("navigation %d: attested = %v", i, m.Attested)
		}
		if m.ConnValidation <= 0 {
			t.Errorf("navigation %d: connection not validated", i)
		}
	}
	if n := relay.Accepted(); n != 1 {
		t.Errorf("%d connections for one session, want 1", n)
	}
}

// TestHijackRefusedBeforeRequestIsWritten: the redirect is caught in
// the handshake of the connection the browser has to open — the
// attacker's server never receives the request (nor, with it, the
// path, cookies or form data a real browser would send).
func TestHijackRefusedBeforeRequestIsWritten(t *testing.T) {
	d := newDeployment(t, 1)
	b, ext := newClientSide(t, d, 0)
	ext.RegisterSite(domain, d.Golden)
	if _, _, err := ext.Navigate(context.Background(), domain, "/"); err != nil {
		t.Fatalf("initial navigation: %v", err)
	}

	phisher, requests := startPhisher(t, d)
	b.Resolve(domain, phisher)
	_, _, err := ext.Navigate(context.Background(), domain, "/login?user=alice")
	if !errors.Is(err, ErrConnectionHijacked) {
		t.Fatalf("err = %v, want ErrConnectionHijacked", err)
	}
	if !errors.Is(err, browser.ErrPinnedKeyMismatch) {
		t.Errorf("err = %v: not refused at the handshake", err)
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("attacker received %d requests, want 0", n)
	}

	// The user may still decide to proceed (§5.3.2); only then does the
	// request reach the other server.
	if err := ext.Override(domain); err != nil {
		t.Fatal(err)
	}
	resp, m, err := ext.Navigate(context.Background(), domain, "/")
	if err != nil || !m.Overridden || string(resp.Body) != "phish" {
		t.Fatalf("overridden navigation: err=%v metrics=%+v", err, m)
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("attacker received %d requests after the override, want 1", n)
	}
}

// TestCutConnectionRedialsToAttestedServer: losing the pooled
// connection is not an attack by itself — the redial reaches the same
// attested key, passes the pin and the session goes on without
// re-attesting.
func TestCutConnectionRedialsToAttestedServer(t *testing.T) {
	d := newDeployment(t, 1)
	_, ext, relay := newRelayedClientSide(t, d)
	if _, _, err := ext.Navigate(context.Background(), domain, "/"); err != nil {
		t.Fatal(err)
	}
	relay.Cut()
	_, m, err := ext.Navigate(context.Background(), domain, "/")
	if err != nil {
		t.Fatalf("navigation after the cut: %v", err)
	}
	if m.Attested {
		t.Error("a redial to the attested key re-attested")
	}
	if n := relay.Accepted(); n != 2 {
		t.Errorf("%d connections, want 2 (the session's and the redial)", n)
	}
}

// TestResetSessionRidesNewHandshakeAndRepins: a new browser context
// shares nothing with the old one — the re-attestation pays its own
// handshake — and ends up pinned again.
func TestResetSessionRidesNewHandshakeAndRepins(t *testing.T) {
	d := newDeployment(t, 1)
	b, ext, relay := newRelayedClientSide(t, d)
	for i := 0; i < 2; i++ {
		if _, _, err := ext.Navigate(context.Background(), domain, "/"); err != nil {
			t.Fatal(err)
		}
	}
	before := relay.Accepted()

	ext.ResetSession()
	if _, m, err := ext.Navigate(context.Background(), domain, "/"); err != nil || !m.Attested {
		t.Fatalf("after reset: err=%v metrics=%+v", err, m)
	}
	if n := relay.Accepted(); n != before+1 {
		t.Errorf("%d connections after the reset, want %d", n, before+1)
	}

	phisher, requests := startPhisher(t, d)
	b.Resolve(domain, phisher)
	if _, _, err := ext.Navigate(context.Background(), domain, "/"); !errors.Is(err, ErrConnectionHijacked) {
		t.Errorf("err = %v, want ErrConnectionHijacked: the new session is not pinned", err)
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("attacker received %d requests, want 0", n)
	}
}
