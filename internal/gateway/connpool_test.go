package gateway

import (
	"bufio"
	"context"
	"crypto/tls"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"revelio/internal/ratls"
)

// TestConnPoolIdleBounds: the pool keeps at most maxIdleConnsPerHost
// idle connections per upstream, and never hands out one that sat idle
// for upstreamIdleTimeout — it closes every such one instead.
func TestConnPoolIdleBounds(t *testing.T) {
	now := time.Unix(1000, 0)
	p := newConnPool(nil, func() time.Time { return now })
	var closed atomic.Int64
	conn := func() *poolConn {
		c, peer := net.Pipe()
		t.Cleanup(func() { _ = peer.Close() })
		return &poolConn{pool: p, addr: "node", conn: tls.Client(countClose{c, &closed}, &tls.Config{})}
	}
	for i := 0; i <= maxIdleConnsPerHost; i++ {
		p.put(conn())
	}
	if n, c := len(p.idle["node"]), closed.Load(); n != maxIdleConnsPerHost || c != 1 {
		t.Fatalf("%d idle and %d closed after %d puts, want %d and 1", n, c, maxIdleConnsPerHost+1, maxIdleConnsPerHost)
	}
	now = now.Add(upstreamIdleTimeout - time.Second)
	if pc := p.take("node", time.Time{}); pc == nil || !pc.reused {
		t.Fatal("a connection idle for less than upstreamIdleTimeout was not reused")
	}
	now = now.Add(time.Second)
	if pc := p.take("node", time.Time{}); pc != nil {
		t.Fatal("a connection idle for upstreamIdleTimeout was reused")
	}
	if n, c := len(p.idle["node"]), closed.Load(); n != 0 || c != maxIdleConnsPerHost {
		t.Errorf("%d idle and %d closed after the timeout, want 0 and %d", n, c, maxIdleConnsPerHost)
	}
}

// countClose counts the closes of the connection it wraps.
type countClose struct {
	net.Conn
	n *atomic.Int64
}

func (c countClose) Close() error {
	c.n.Add(1)
	return c.Conn.Close()
}

// TestGatewayPolicyBumpRetiresConnectionsInUse: a connection that was
// carrying a request when the policy epoch moved is closed when that
// request ends instead of going back to the pool, so the next request
// dials and is judged under the new policy.
func TestGatewayPolicyBumpRetiresConnectionsInUse(t *testing.T) {
	provider := newTestProvider("in-use")
	var dials atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/hold" {
			entered <- struct{}{}
			<-release
		}
		_, _ = io.WriteString(w, "ok")
	})
	addr := startUpstreamWith(t, provider, handler, countDials(&dials))
	g, err := New(Config{Source: NewView(testDomain, serving(addr)), Verifier: provider})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	held := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "http://gw/hold", nil))
		held <- rec.Code
	}()
	<-entered
	provider.rev.Add(1)
	if s := g.Stats(); s.PolicyFlushes != 1 {
		t.Fatalf("PolicyFlushes = %d after the bump, want 1", s.PolicyFlushes)
	}
	close(release)
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held request: status %d", code)
	}
	judged := provider.verified.Load()
	proxyOnce(t, g)
	if d, j := dials.Load(), provider.verified.Load()-judged; d != 2 || j != 1 {
		t.Errorf("%d dials in all and %d judgments after the held request, want 2 and 1", d, j)
	}
}

// scriptedUpstream opens an RA-TLS listener that speaks HTTP/1.1 by
// hand: for each request a connection carries, it calls respond with the
// connection and the request's path, and respond writes whatever bytes
// the row scripts. Rows answer with reply(path), so a relayed body that
// names another path is a response served to the wrong request.
func scriptedUpstream(t *testing.T, issuer ratls.Issuer, respond func(w io.Writer, path string)) (addr string) {
	t.Helper()
	cert, err := ratls.CreateProviderCertificate(context.Background(), issuer, testDomain)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{Certificates: []tls.Certificate{cert}})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go func() {
				br := bufio.NewReader(c)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					_, _ = io.Copy(io.Discard, req.Body)
					respond(c, req.URL.Path)
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// reply is a whole HTTP/1.1 200 response whose body is body.
func reply(body string) string {
	return "HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
}

// TestGatewayUnsolicitedResponseInTheSameWrite: a node writes a second
// whole response right behind its answer to /1, in the same write, as a
// node that mis-frames a body does. Those bytes answer no request: the
// connection holding them is closed, not pooled, so /2 and /3 each get
// their own answer. net/http's Transport, which the pool replaced, does
// the same ("Unsolicited response received on idle HTTP channel").
func TestGatewayUnsolicitedResponseInTheSameWrite(t *testing.T) {
	provider := newTestProvider("same-write")
	addr := scriptedUpstream(t, provider, func(w io.Writer, path string) {
		msg := reply(path)
		if path == "/1" {
			msg += reply("/EVIL")
		}
		_, _ = io.WriteString(w, msg)
	})
	g, err := New(Config{Source: NewView(testDomain, serving(addr)), Verifier: provider})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, path := range []string{"/1", "/2", "/3"} {
		if got := proxyPath(t, g, path); got != path {
			t.Fatalf("GET %s was served %q", path, got)
		}
	}
}

// TestGatewayUnsolicitedBytesWhileIdle: a node answers /1 and later,
// while the connection sits idle in the gateway's pool, writes a whole
// response nobody asked for. The next request must not read it as its
// answer: a connection whose socket holds bytes is closed instead of
// reused, and /2 and /3 each get their own answer.
func TestGatewayUnsolicitedBytesWhileIdle(t *testing.T) {
	provider := newTestProvider("idle-bytes")
	speak, spoke := make(chan struct{}), make(chan struct{})
	addr := scriptedUpstream(t, provider, func(w io.Writer, path string) {
		_, _ = io.WriteString(w, reply(path))
		if path == "/1" {
			<-speak
			_, _ = io.WriteString(w, reply("/EVIL"))
			close(spoke)
		}
	})
	g, err := New(Config{Source: NewView(testDomain, serving(addr)), Verifier: provider})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if got := proxyPath(t, g, "/1"); got != "/1" {
		t.Fatalf("GET /1 was served %q", got)
	}
	// /1 has been relayed and its connection is idle in the pool; only
	// now does the node write. Loopback delivers a write before the
	// writer's syscall returns; the pause is margin for a loaded machine.
	close(speak)
	<-spoke
	time.Sleep(20 * time.Millisecond)
	for _, path := range []string{"/2", "/3"} {
		if got := proxyPath(t, g, path); got != path {
			t.Fatalf("GET %s was served %q", path, got)
		}
	}
}
