package browser

import (
	"context"
	"errors"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// echo answers every request with body.
func echo(body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(body))
	})
}

func mustGet(t *testing.T, b *Browser, domain, wantBody string) *Response {
	t.Helper()
	resp, err := b.Get(context.Background(), domain, "/")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if resp.Status != 200 || string(resp.Body) != wantBody {
		t.Fatalf("resp = %d %q, want 200 %q", resp.Status, resp.Body, wantBody)
	}
	return resp
}

// goroutineBaseline is the goroutine count once what earlier tests left
// behind has wound down.
func goroutineBaseline() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// waitGoroutines polls, up to a deadline, for the goroutine count to be
// back at base; with gc it collects garbage before each look, which is
// what runs a dropped Browser's finalizer.
func waitGoroutines(t *testing.T, base int, gc bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if gc {
			runtime.GC()
		}
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines, want the baseline %d:\n%s", n, base, buf)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// openFDs counts the process's open file descriptors, -1 where the
// platform has no /proc.
func openFDs() int {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(entries)
}

// TestSessionReusesOneConnection: the navigations of a session share
// one TLS connection — one handshake, however many Gets.
func TestSessionReusesOneConnection(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	srv := startServer(t, ca, zone, "svc.test", 1, echo("hello"))
	b := New(pool, 0)
	defer b.Close()
	b.Resolve("svc.test", srv.addr)
	for i := 0; i < 10; i++ {
		resp := mustGet(t, b, "svc.test", "hello")
		if string(resp.TLSPublicKeyDER) != string(srv.pubs[0]) {
			t.Fatalf("get %d: response key differs from the server's", i)
		}
	}
	if n := srv.handshakes.Load(); n != 1 {
		t.Errorf("%d handshakes for 10 navigations, want 1", n)
	}
	// Re-resolving to the same address is not a redirect: nothing is
	// dropped.
	b.Resolve("svc.test", srv.addr)
	mustGet(t, b, "svc.test", "hello")
	if n := srv.handshakes.Load(); n != 1 {
		t.Errorf("%d handshakes after an unchanged Resolve, want 1", n)
	}
}

// TestServerClosedConnectionRedials: the peer may close an idle
// connection at any time; the next navigation dials again without the
// caller noticing, and the connection context follows the connection
// that actually served the response.
func TestServerClosedConnectionRedials(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	srv := startServer(t, ca, zone, "svc.test", 2, echo("hello"))
	b := New(pool, 0)
	defer b.Close()
	b.Resolve("svc.test", srv.addr)

	mustGet(t, b, "svc.test", "hello")
	if key, err := b.ConnectionPublicKey("svc.test"); err != nil || string(key) != string(srv.pubs[0]) {
		t.Fatalf("connection context before the close: %v (first key: %v)", err, string(key) == string(srv.pubs[0]))
	}
	srv.closeConns()
	resp := mustGet(t, b, "svc.test", "hello")
	if n := srv.handshakes.Load(); n != 2 {
		t.Fatalf("%d handshakes, want 2 (one redial)", n)
	}
	if string(resp.TLSPublicKeyDER) != string(srv.pubs[1]) {
		t.Error("response does not report the redialled connection's key")
	}
	if key, err := b.ConnectionPublicKey("svc.test"); err != nil || string(key) != string(srv.pubs[1]) {
		t.Errorf("connection context not updated by the redial: %v", err)
	}
}

// TestResolveChangeBitesOnNextGet: repointing the domain retires the
// pooled connection, every time — the very next navigation is served
// by, and reports the key of, the new address.
func TestResolveChangeBitesOnNextGet(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	srvs := []*tlsServer{
		startServer(t, ca, zone, "svc.test", 1, echo("A")),
		startServer(t, ca, zone, "svc.test", 1, echo("B")),
	}
	b := New(pool, 0)
	defer b.Close()
	for i := 0; i < 40; i++ {
		srv := srvs[i%2]
		b.Resolve("svc.test", srv.addr)
		resp := mustGet(t, b, "svc.test", string(rune('A'+i%2)))
		if string(resp.TLSPublicKeyDER) != string(srv.pubs[0]) {
			t.Fatalf("round %d: response reports the other server's key", i)
		}
		key, err := b.ConnectionPublicKey("svc.test")
		if err != nil || string(key) != string(srv.pubs[0]) {
			t.Fatalf("round %d: connection context is not the new server's key (%v)", i, err)
		}
	}
	if a, bb := srvs[0].handshakes.Load(), srvs[1].handshakes.Load(); a != 20 || bb != 20 {
		t.Errorf("handshakes = %d and %d, want 20 each", a, bb)
	}
}

// TestPinRefusesBeforeRequestIsWritten: with a key pinned, a server
// holding a CA-valid certificate under another key is turned away in
// the handshake; its handler never runs.
func TestPinRefusesBeforeRequestIsWritten(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	var requests atomic.Int64
	srv := startServer(t, ca, zone, "svc.test", 1, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		requests.Add(1)
		_, _ = w.Write([]byte("hello"))
	}))
	_, otherKey := issueCert(t, ca, zone, "svc.test")

	b := New(pool, 0)
	defer b.Close()
	b.Resolve("svc.test", srv.addr)
	b.Pin("svc.test", otherKey)
	if _, err := b.Get(context.Background(), "svc.test", "/"); !errors.Is(err, ErrPinnedKeyMismatch) {
		t.Fatalf("err = %v, want ErrPinnedKeyMismatch", err)
	}
	if _, err := b.ConnectionPublicKey("svc.test"); !errors.Is(err, ErrNoConnection) {
		t.Errorf("refused connection left a connection context: %v", err)
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("server saw %d requests on a refused connection, want 0", n)
	}

	// The matching pin, or none, lets the navigation through.
	b.Pin("svc.test", srv.pubs[0])
	mustGet(t, b, "svc.test", "hello")
	b.Pin("svc.test", otherKey)
	b.ResetSession() // forgets the pin and the connection
	mustGet(t, b, "svc.test", "hello")
	if n := requests.Load(); n != 2 {
		t.Errorf("server saw %d requests, want 2", n)
	}
}

// TestResetSessionForcesHandshake: a new browser context shares no
// connection, and no connection context, with the old one.
func TestResetSessionForcesHandshake(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	srv := startServer(t, ca, zone, "svc.test", 1, echo("hello"))
	b := New(pool, 0)
	defer b.Close()
	b.Resolve("svc.test", srv.addr)
	mustGet(t, b, "svc.test", "hello")
	b.ResetSession()
	if _, err := b.ConnectionPublicKey("svc.test"); !errors.Is(err, ErrNoConnection) {
		t.Errorf("connection context survived ResetSession: %v", err)
	}
	mustGet(t, b, "svc.test", "hello")
	if n := srv.handshakes.Load(); n != 2 {
		t.Errorf("%d handshakes, want 2", n)
	}
}

// TestCancelledGetLeavesNothingBehind: a navigation cancelled while the
// server sits on the request records no connection context, and its
// connection and goroutines are gone without Close or GC.
func TestCancelledGetLeavesNothingBehind(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	srv := startServer(t, ca, zone, "svc.test", 1, http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // until the client hangs up
	}))
	base := goroutineBaseline()

	b := New(pool, 0)
	b.Resolve("svc.test", srv.addr)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := b.Get(ctx, "svc.test", "/"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if n := srv.handshakes.Load(); n != 1 {
		t.Fatalf("%d handshakes, want 1 (cancelled mid-response, not before)", n)
	}
	if _, err := b.ConnectionPublicKey("svc.test"); !errors.Is(err, ErrNoConnection) {
		t.Errorf("aborted navigation recorded a connection context: %v", err)
	}
	waitGoroutines(t, base, false)
	runtime.KeepAlive(b) // the finalizer had no part in it
}

// TestCloseReleasesConnections: Close gives the connections back at
// once — no GC involved — and leaves the Browser usable.
func TestCloseReleasesConnections(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	srv := startServer(t, ca, zone, "svc.test", 1, echo("hello"))
	base := goroutineBaseline()

	b := New(pool, 0)
	b.Resolve("svc.test", srv.addr)
	for i := 0; i < 3; i++ {
		mustGet(t, b, "svc.test", "hello")
	}
	if runtime.NumGoroutine() <= base {
		t.Fatal("an open keep-alive connection should hold goroutines; the test measures nothing")
	}
	b.Close()
	waitGoroutines(t, base, false)

	mustGet(t, b, "svc.test", "hello")
	if n := srv.handshakes.Load(); n != 2 {
		t.Errorf("%d handshakes, want 2 (one before Close, one after)", n)
	}
	b.Close()
	waitGoroutines(t, base, false)
}

// TestDroppedBrowserReleasesConnections: nothing the live connection
// holds leads back to the Browser, so a Browser that is simply dropped
// is collected and its finalizer closes the connection. A thousand
// dropped sessions leave neither goroutines nor descriptors behind.
func TestDroppedBrowserReleasesConnections(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	srv := startServer(t, ca, zone, "svc.test", 1, echo("hello"))
	base, fds := goroutineBaseline(), openFDs()

	const sessions = 1000
	for i := 0; i < sessions; i++ {
		b := New(pool, 0)
		b.Resolve("svc.test", srv.addr)
		mustGet(t, b, "svc.test", "hello")
		mustGet(t, b, "svc.test", "hello")
	}
	if n := srv.handshakes.Load(); n != sessions {
		t.Errorf("%d handshakes for %d sessions", n, sessions)
	}
	waitGoroutines(t, base, true)
	if fds < 0 {
		return
	}
	// The sockets close with the goroutines that own them, the server's
	// side a moment after the client's.
	deadline := time.Now().Add(10 * time.Second)
	for openFDs() > fds {
		if time.Now().After(deadline) {
			t.Fatalf("%d open descriptors, want the starting %d", openFDs(), fds)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
