package core

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// TestCloseDoesNotWaitForSilentConnections: a connection that was
// dialled (and, on the TLS listeners, handshaken) but never sent a
// request byte has nothing to drain. net/http's Shutdown counts it as
// busy until it is five seconds old, so a close that only calls Shutdown
// sits out its whole grace period; close must hang up on it instead and
// report a clean drain.
func TestCloseDoesNotWaitForSilentConnections(t *testing.T) {
	cfg, _ := testConfig(1)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.ProvisionCertificates(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d.StartWeb(nil); err != nil {
		t.Fatal(err)
	}
	n := d.Nodes[0]

	silentTLS := func(addr string) net.Conn {
		t.Helper()
		conn, err := tls.Dial("tcp", addr, &tls.Config{InsecureSkipVerify: true}) //nolint:gosec // only the connection's state matters here
		if err != nil {
			t.Fatalf("dial %s: %v", addr, err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		return conn
	}
	web := silentTLS(n.WebAddr())
	upstream := silentTLS(n.UpstreamAddr())
	control, err := net.Dial("tcp", strings.TrimPrefix(n.ControlURL(), "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = control.Close() })

	for name, s := range map[string]*httpServer{"web": n.Web, "upstream": n.Upstream, "control": n.Control} {
		if !s.close() {
			t.Errorf("%s listener: close ran out its grace period on a connection that never sent a byte", name)
		}
	}
	// The silent peers were hung up on, not left to time out.
	for name, conn := range map[string]net.Conn{"web": web, "upstream": upstream, "control": control} {
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var timeout net.Error
		if _, err := conn.Read(make([]byte, 1)); err == nil || (errors.As(err, &timeout) && timeout.Timeout()) {
			t.Errorf("%s connection still open after close: %v", name, err)
		}
	}
	if got := d.UndrainedCloses(); got != 0 {
		t.Errorf("UndrainedCloses = %d after closing the listeners directly, want 0", got)
	}
}

// TestClosedDeploymentRefusesWork: after Close, every call that would
// launch a node or open a listener fails and opens nothing — nothing is
// left to close what it would start.
func TestClosedDeploymentRefusesWork(t *testing.T) {
	cfg, _ := testConfig(1)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := d.ProvisionCertificates(ctx); err != nil {
		t.Fatal(err)
	}
	d.Close()

	if _, err := d.ProvisionCertificates(ctx); !errors.Is(err, errClosed) {
		t.Errorf("ProvisionCertificates after Close: %v, want errClosed", err)
	}
	if err := d.StartWeb(nil); !errors.Is(err, errClosed) {
		t.Errorf("StartWeb after Close: %v, want errClosed", err)
	}
	if err := d.StartNodeWeb(0); !errors.Is(err, errClosed) {
		t.Errorf("StartNodeWeb after Close: %v, want errClosed", err)
	}
	if _, err := d.AddNode(ctx); !errors.Is(err, errClosed) {
		t.Errorf("AddNode after Close: %v, want errClosed", err)
	}
	if len(d.Nodes) != 1 || d.Nodes[0].WebAddr() != "" || d.Nodes[0].UpstreamAddr() != "" {
		t.Errorf("a closed deployment launched or opened something: %d nodes, web %q, upstream %q",
			len(d.Nodes), d.Nodes[0].WebAddr(), d.Nodes[0].UpstreamAddr())
	}
}
