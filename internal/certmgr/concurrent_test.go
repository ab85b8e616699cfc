package certmgr

import (
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"revelio/internal/acme"
	"revelio/internal/firmware"
)

// gate is the SP node's transport in these tests. It holds every request
// match selects until want of them are in flight at once, or until the
// request's context ends; onHold, if set, runs as each is held.
type gate struct {
	match  func(*http.Request) bool
	want   int
	onHold func()

	mu   sync.Mutex
	held int
	open chan struct{}
}

func newGate(want int, match func(*http.Request) bool) *gate {
	return &gate{match: match, want: want, open: make(chan struct{})}
}

func (g *gate) RoundTrip(r *http.Request) (*http.Response, error) {
	if g.match(r) {
		g.mu.Lock()
		if g.held++; g.held == g.want {
			close(g.open)
		}
		g.mu.Unlock()
		if g.onHold != nil {
			g.onHold()
		}
		select {
		case <-g.open:
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	return http.DefaultTransport.RoundTrip(r)
}

func (c *cluster) spThrough(rt http.RoundTripper) *SPNode {
	return NewSPNode(c.verifier, acme.NewClient(c.ca, c.zone),
		"svc.example.org", c.approved, &http.Client{Transport: rt})
}

// nextSerial has the cluster's CA issue one certificate and returns its
// serial number: 2 when the CA had issued nothing before.
func (c *cluster) nextSerial(t *testing.T) int64 {
	t.Helper()
	der, err := acme.NewClient(c.ca, c.zone).ObtainCertificate(context.Background(),
		"svc.example.org", c.agents[0].vm.Identity().CSRDER)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	return cert.SerialNumber.Int64()
}

// Fig 4's fan-out phases run over every node at once, shown without a
// stopwatch: the SP's client holds each request of the phase until all
// of them are in flight, so a phase that sends one request at a time
// never gets past its first, and the test's deadline ends it.
func TestProvisionPhasesRunAtOnce(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.urls[0]
	for _, row := range []struct {
		phase string
		want  int
		match func(*http.Request) bool
	}{
		{"evidence retrieval", 3, func(r *http.Request) bool {
			return r.Method == http.MethodGet && r.URL.Path == PathCSRBundle
		}},
		{"non-leader distribution", 2, func(r *http.Request) bool {
			return r.Method == http.MethodPost && r.URL.Path == PathCertificate &&
				"http://"+r.URL.Host != leader
		}},
	} {
		t.Run(row.phase, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := c.spThrough(newGate(row.want, row.match)).Provision(ctx, c.urls); err != nil {
				t.Fatalf("%s never had all %d requests in flight at once: %v", row.phase, row.want, err)
			}
			for i, a := range c.agents {
				if !a.Ready() {
					t.Errorf("agent %d not ready", i)
				}
			}
		})
	}
}

// Running the nodes at once decides nothing differently: node 1 runs on
// an unapproved chip and node 2 on firmware that misses the golden
// measurement, both failures surface in the same validation phase, and
// node 1's, first in URL order, is the error. No node was handed a
// certificate and the CA issued none.
func TestConcurrentStandUpFirstFailureDecides(t *testing.T) {
	c := newCluster(t, 2)
	c.approved[c.urls[1]] = c.approved[c.urls[0]]
	off := c.bootNodeOn(t, []byte("off-golden"), firmware.NewOVMF("2031.01"))
	offAgent := NewAgent(off, c.verifier, nil)
	srv := httptest.NewServer(offAgent)
	t.Cleanup(srv.Close)
	c.approved[srv.URL] = off.Identity().CSRReport.ChipID

	_, err := c.spThrough(http.DefaultTransport).Provision(context.Background(), append(c.urls, srv.URL))
	if !errors.Is(err, ErrUnapprovedNode) || errors.Is(err, ErrNodeRejected) || !strings.Contains(err.Error(), c.urls[1]) {
		t.Fatalf("err = %v, want node 1's ErrUnapprovedNode", err)
	}
	for i, a := range append(c.agents, offAgent) {
		if a.Ready() {
			t.Errorf("agent %d ready after a failed run", i)
		}
	}
	if got := c.nextSerial(t); got != 2 {
		t.Errorf("next serial %d, want 2: the failed run had a certificate issued", got)
	}
	if _, err := c.sp.Provision(context.Background(), []string{srv.URL}); !errors.Is(err, ErrNodeRejected) {
		t.Errorf("node 2 alone: err = %v, want ErrNodeRejected", err)
	}
}

// A context cancelled while evidence is being retrieved ends the run
// with the context's error, before anything is obtained or pushed.
func TestConcurrentStandUpCancelDuringRetrieval(t *testing.T) {
	c := newCluster(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := newGate(len(c.urls)+1, func(r *http.Request) bool { return r.URL.Path == PathCSRBundle })
	g.onHold = cancel
	if _, err := c.spThrough(g).Provision(ctx, c.urls); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, a := range c.agents {
		if a.Ready() {
			t.Errorf("agent %d ready after a cancelled run", i)
		}
	}
	if got := c.nextSerial(t); got != 2 {
		t.Errorf("next serial %d, want 2: the cancelled run had a certificate issued", got)
	}
}

// BenchmarkProvision is one Fig 4 run over an already attested cluster,
// what a certificate rotation costs: the verifier's caches are warm, and
// the CA issues a certificate every run.
func BenchmarkProvision(b *testing.B) {
	for _, nodes := range []int{1, 3} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			c := newCluster(b, nodes)
			ctx := context.Background()
			if _, err := c.sp.Provision(ctx, c.urls); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%40 == 39 {
					// The CA issues 50 certificates a week per domain;
					// a fresh one keeps a long run under that.
					b.StopTimer()
					c.renewCA(b)
					b.StartTimer()
				}
				if _, err := c.sp.Provision(ctx, c.urls); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// renewCA gives the cluster a fresh CA, zone and SP node.
func (c *cluster) renewCA(tb testing.TB) {
	tb.Helper()
	c.zone = acme.NewZone()
	var err error
	if c.ca, err = acme.NewCA(c.zone); err != nil {
		tb.Fatal(err)
	}
	c.sp = NewSPNode(c.verifier, acme.NewClient(c.ca, c.zone), "svc.example.org", c.approved, nil)
}
