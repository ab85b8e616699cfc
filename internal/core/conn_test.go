package core

import (
	"context"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"revelio/internal/kds"
)

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestReplacementKeepsTheKDSConnection: removing a node closes that node's
// idle connections and no one else's. Each agent client, the SP's client
// and the verifier's KDS client pool their connections apart, so the
// verifier fetches every joining chip's VCEK over the one keep-alive
// connection it already holds instead of dialing the KDS again.
func TestReplacementKeepsTheKDSConnection(t *testing.T) {
	cfg, _ := testConfig(2)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Nothing has reached the KDS yet (nodes boot without it): serve it
	// again on the same address, through a listener that counts dials.
	addr := d.KDSServer.listener.Addr().String()
	d.KDSServer.close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingListener{Listener: ln}
	var vcekRequests atomic.Int64
	inner := kds.NewServer(d.Manufacturer)
	d.KDSServer = newHTTPServer(counted, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, kds.VCEKPathPrefix) {
			vcekRequests.Add(1)
		}
		inner.ServeHTTP(w, r)
	}), "http")
	go func() { _ = d.KDSServer.server.Serve(counted) }()

	ctx := context.Background()
	res, err := d.ProvisionCertificates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before, fetched := counted.accepted.Load(), vcekRequests.Load()
	const replacements = 8
	for i := 0; i < replacements; i++ {
		if _, err := d.RemoveNode(ctx, len(d.Nodes)-1); err != nil { // node 0 leads
			t.Fatal(err)
		}
		idx, err := d.AddNode(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SP.ProvisionNode(ctx, d.Nodes[idx].ControlURL(), res.LeaderURL, res.CertDER); err != nil {
			t.Fatal(err)
		}
	}
	if got := vcekRequests.Load() - fetched; got != replacements {
		t.Fatalf("%d replacements fetched %d VCEKs, want one each", replacements, got)
	}
	if dials := counted.accepted.Load() - before; dials > 1 {
		t.Errorf("%d replacements dialed the KDS %d times, want the one connection kept", replacements, dials)
	}
}
