package netlab

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestLatencyInjection(t *testing.T) {
	server := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer server.Close()

	const rtt = 20 * time.Millisecond
	client := Client(rtt)
	start := time.Now()
	resp, err := client.Get(server.URL)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if elapsed := time.Since(start); elapsed < rtt {
		t.Errorf("request took %v, want >= %v", elapsed, rtt)
	}
}

func TestRequestCounting(t *testing.T) {
	server := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer server.Close()

	tr := &Transport{}
	client := &http.Client{Transport: tr}
	for i := 0; i < 3; i++ {
		resp, err := client.Get(server.URL)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
	}
	if tr.Requests() != 3 {
		t.Errorf("Requests = %d, want 3", tr.Requests())
	}
}

func TestOutageInjectionAndRecovery(t *testing.T) {
	server := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer server.Close()

	down := errors.New("kds down")
	tr := &Transport{}
	client := &http.Client{Transport: tr}

	get := func() error {
		resp, err := client.Get(server.URL)
		if err == nil {
			_ = resp.Body.Close()
		}
		return err
	}

	if err := get(); err != nil {
		t.Fatalf("before outage: %v", err)
	}
	tr.SetOutage(down)
	if err := get(); err == nil || !errors.Is(err, down) {
		t.Errorf("during outage err = %v, want wrapped %v", err, down)
	}
	if tr.Requests() != 1 {
		t.Errorf("outage request counted: Requests = %d, want 1", tr.Requests())
	}
	tr.SetOutage(nil)
	if err := get(); err != nil {
		t.Errorf("after recovery: %v", err)
	}
	if tr.Requests() != 2 {
		t.Errorf("Requests = %d, want 2", tr.Requests())
	}
}

// TestPartitionIsPerLink: a partition cuts only the named hosts; other
// links keep working, and healing restores the cut one.
func TestPartitionIsPerLink(t *testing.T) {
	newServer := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
		}))
	}
	a, b := newServer(), newServer()
	defer a.Close()
	defer b.Close()

	tr := &Transport{}
	client := &http.Client{Transport: tr}
	get := func(url string) error {
		resp, err := client.Get(url)
		if err == nil {
			_ = resp.Body.Close()
		}
		return err
	}

	cut := errors.New("link down")
	tr.Partition(cut, a.Listener.Addr().String())
	if err := get(a.URL); err == nil || !errors.Is(err, cut) {
		t.Errorf("partitioned link err = %v, want wrapped %v", err, cut)
	}
	if err := get(b.URL); err != nil {
		t.Errorf("unpartitioned link failed: %v", err)
	}
	tr.HealPartition()
	if err := get(a.URL); err != nil {
		t.Errorf("after heal: %v", err)
	}
}

// TestRTTOverrideFlap: SetRTT replaces the base latency mid-flight and
// ClearRTT restores it.
func TestRTTOverrideFlap(t *testing.T) {
	server := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer server.Close()

	tr := &Transport{}
	client := &http.Client{Transport: tr}
	get := func() time.Duration {
		start := time.Now()
		resp, err := client.Get(server.URL)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		return time.Since(start)
	}

	const flap = 20 * time.Millisecond
	tr.SetRTT(flap)
	if elapsed := get(); elapsed < flap {
		t.Errorf("flapped request took %v, want >= %v", elapsed, flap)
	}
	tr.ClearRTT()
	if elapsed := get(); elapsed >= flap {
		t.Errorf("cleared request took %v, want < %v", elapsed, flap)
	}
}

// TestDeterministicLoss: SetLoss(n) drops exactly every n-th request —
// counted, not sampled, so the pattern is reproducible.
func TestDeterministicLoss(t *testing.T) {
	server := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer server.Close()

	tr := &Transport{}
	client := &http.Client{Transport: tr}
	tr.SetLoss(3)
	var failed []int
	for i := 1; i <= 9; i++ {
		resp, err := client.Get(server.URL)
		if err != nil {
			failed = append(failed, i)
			continue
		}
		_ = resp.Body.Close()
	}
	if len(failed) != 3 || failed[0] != 3 || failed[1] != 6 || failed[2] != 9 {
		t.Errorf("lost requests %v, want [3 6 9]", failed)
	}
	tr.SetLoss(0)
	for i := 0; i < 4; i++ {
		resp, err := client.Get(server.URL)
		if err != nil {
			t.Fatalf("request %d failed after loss disabled: %v", i, err)
		}
		_ = resp.Body.Close()
	}
}

func TestSlowDripRationsResponseBodies(t *testing.T) {
	payload := make([]byte, 4096)
	server := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(payload)
	}))
	defer server.Close()

	tr := &Transport{}
	client := &http.Client{Transport: tr}

	// Undripped: the body arrives essentially instantly.
	resp, err := client.Get(server.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || len(body) != len(payload) {
		t.Fatalf("baseline read: %d bytes, err=%v", len(body), err)
	}

	// Dripped: 4096 bytes at 512 per read with a 5ms pause each is at
	// least 8 reads * 5ms. Headers still land promptly — the request
	// itself "succeeds".
	const pause = 5 * time.Millisecond
	tr.SetDrip(pause)
	start := time.Now()
	resp, err = client.Get(server.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil || len(body) != len(payload) {
		t.Fatalf("dripped read: %d bytes, err=%v", len(body), err)
	}
	if min := 8 * pause; elapsed < min {
		t.Errorf("dripped body arrived in %v, want >= %v", elapsed, min)
	}

	// Cleared: full speed again.
	tr.ClearDrip()
	resp, err = client.Get(server.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if len(body) != len(payload) {
		t.Fatalf("post-clear read: %d bytes", len(body))
	}
}

// TestRelayForwardsCountsAndCuts: the relay is transparent to HTTP,
// counts one accepted connection per client connection, and Cut ends
// the established ones without stopping the relay.
func TestRelayForwardsCountsAndCuts(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()
	relay, err := NewRelay(context.Background(), srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	get := func() {
		t.Helper()
		resp, err := client.Get("http://" + relay.Addr() + "/")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if string(body) != "ok" {
			t.Fatalf("body = %q", body)
		}
	}
	get()
	get()
	if n := relay.Accepted(); n != 1 {
		t.Fatalf("%d connections for two keep-alive requests, want 1", n)
	}
	relay.Cut()
	get() // the client redials through the still-open relay
	if n := relay.Accepted(); n != 2 {
		t.Fatalf("%d connections after a cut, want 2", n)
	}
}

// TestCloseIdleConnectionsReachesOnlyItsOwnPool: two transports pool
// their connections apart — closing one's idle connections
// leaves the other's keep-alive connection to reuse.
func TestCloseIdleConnectionsReachesOnlyItsOwnPool(t *testing.T) {
	var dials atomic.Int64
	server := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	server.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dials.Add(1)
		}
	}
	server.Start()
	defer server.Close()

	kept, closed := &http.Client{Transport: &Transport{}}, &http.Client{Transport: &Transport{}}
	defer kept.CloseIdleConnections()
	get := func(c *http.Client) {
		t.Helper()
		resp, err := c.Get(server.URL)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
	get(kept)
	get(closed)
	if n := dials.Load(); n != 2 {
		t.Fatalf("two transports dialed %d times, want one connection each", n)
	}
	closed.CloseIdleConnections()
	get(kept)
	if n := dials.Load(); n != 2 {
		t.Errorf("closing another transport's idle connections cost this one its connection: %d dials", n)
	}
}
