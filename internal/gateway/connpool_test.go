package gateway

import (
	"crypto/tls"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
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
	if pc := p.take("node"); pc == nil || !pc.reused {
		t.Fatal("a connection idle for less than upstreamIdleTimeout was not reused")
	}
	now = now.Add(time.Second)
	if pc := p.take("node"); pc != nil {
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
