package core

import (
	"context"
	"crypto/tls"
	"net/http"
	"runtime"
	"testing"
	"time"
)

// lifecycle runs one full deployment cycle: build, provision, serve,
// take a TLS request, reboot a node, tear down.
func lifecycle(t *testing.T) {
	t.Helper()
	cfg, _ := testConfig(2)
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
	client := &http.Client{Transport: &http.Transport{TLSClientConfig: &tls.Config{InsecureSkipVerify: true}}}
	defer client.CloseIdleConnections()
	resp, err := client.Get("https://" + d.Nodes[0].WebAddr() + "/.well-known/revelio/attestation")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if err := d.rebootNode(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if idx, err := d.AddNode(context.Background()); err != nil {
		t.Fatal(err)
	} else if _, err := d.RemoveNode(context.Background(), idx); err != nil {
		t.Fatal(err)
	}
}

// TestNoGoroutineLeakAcrossLifecycles is the goleak-style guard fleet
// churn depends on: repeated start/stop cycles (including reboot and
// add/remove) must not accumulate goroutines — every server Serve loop,
// connection handler and keep-alive read loop has to exit at Close.
func TestNoGoroutineLeakAcrossLifecycles(t *testing.T) {
	// One warm-up cycle populates process-global state (DNS caches,
	// sync.Pools, the first http.Server bookkeeping) so the baseline is
	// honest.
	lifecycle(t)
	base := settledGoroutines(t, runtime.NumGoroutine(), 2*time.Second)

	for i := 0; i < 3; i++ {
		lifecycle(t)
	}

	const slack = 3
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked across lifecycles: base %d, now %d\n%s",
				base, runtime.NumGoroutine(), buf[:n])
		}
		runtime.Gosched()
		time.Sleep(20 * time.Millisecond)
	}
}

// settledGoroutines polls until the goroutine count stops shrinking (or
// the window elapses) and returns the settled count.
func settledGoroutines(t *testing.T, cur int, window time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(window)
	low := cur
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		if n := runtime.NumGoroutine(); n < low {
			low = n
			continue
		}
	}
	return low
}
