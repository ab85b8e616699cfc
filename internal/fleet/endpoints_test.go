package fleet

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestEndpointSnapshots: the published serving view carries every node
// with URL, upstream address, leader role and measurement; a join and a
// removal each publish exactly one new version.
func TestEndpointSnapshots(t *testing.T) {
	ctx := context.Background()
	f, err := New(ctx, Config{Nodes: 2, Domain: "endpoints.test.example.org"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	snap := f.Endpoints()
	if snap.Version == 0 {
		t.Fatal("initial snapshot has version 0")
	}
	if snap.Domain != "endpoints.test.example.org" {
		t.Fatalf("snapshot domain = %q", snap.Domain)
	}
	if got := len(snap.Endpoints); got != 2 {
		t.Fatalf("serving endpoints = %d, want 2", got)
	}
	leaders := 0
	for _, ep := range snap.Endpoints {
		if ep.WebAddr == "" || ep.UpstreamAddr == "" || ep.ControlURL == "" {
			t.Errorf("endpoint missing addresses: %+v", ep)
		}
		if ep.Measurement != f.Golden() {
			t.Errorf("endpoint measurement = %s, want golden %s", ep.Measurement, f.Golden())
		}
		if ep.Leader {
			leaders++
			if ep.ControlURL != f.LeaderURL() {
				t.Errorf("leader endpoint %q != LeaderURL %q", ep.ControlURL, f.LeaderURL())
			}
		}
	}
	if leaders != 1 {
		t.Fatalf("snapshot marks %d leaders, want 1", leaders)
	}

	// Drive a join and a removal: each takes the membership write lock
	// once and publishes once, and the final view is back to 2 serving
	// nodes.
	last := snap.Version
	bumped := func(after string) {
		t.Helper()
		v := f.Endpoints().Version
		if v != last+1 {
			t.Fatalf("snapshot version after %s went %d -> %d, want +1", after, last, v)
		}
		last = v
	}
	idx, err := f.AddNode(ctx)
	if err != nil {
		t.Fatal(err)
	}
	bumped("AddNode")
	if err := f.RemoveNode(ctx, idx); err != nil {
		t.Fatal(err)
	}
	bumped("RemoveNode")
	if got := len(f.Endpoints().Endpoints); got != 2 {
		t.Fatalf("serving endpoints after churn = %d, want 2", got)
	}
}

// TestLifecycleCancellation: AddNode, RemoveNode and StageFirmware
// refuse a dead context before any side effect — no node launched, none
// drained, no rollout staged, no new view version published — and the
// membership changes succeed under a live one.
func TestLifecycleCancellation(t *testing.T) {
	f := newTestFleet(t, 2)
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	before := f.Endpoints()
	if _, err := f.AddNode(dead); !errors.Is(err, context.Canceled) {
		t.Errorf("AddNode(dead): %v", err)
	}
	if err := f.RemoveNode(dead, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("RemoveNode(dead): %v", err)
	}
	golden := f.Golden()
	if _, err := f.StageFirmware(dead, "2031.01"); !errors.Is(err, context.Canceled) {
		t.Errorf("StageFirmware(dead): %v", err)
	}
	if f.Golden() != golden {
		t.Error("golden changed by a cancelled StageFirmware")
	}
	if f.rolling != nil {
		t.Error("a cancelled StageFirmware left a rollout staged")
	}
	if got := len(f.d.Nodes); got != 2 || f.Size() != 2 {
		t.Errorf("cancelled operations left %d nodes, %d serving; want 2 and 2", got, f.Size())
	}
	if after := f.Endpoints(); after.Version != before.Version {
		t.Errorf("cancelled operations published view v%d -> v%d", before.Version, after.Version)
	}

	ctx := context.Background()
	idx, err := f.AddNode(ctx)
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if err := f.RemoveNode(ctx, idx); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
}

// TestAcquireDrains: a request admitted through Acquire blocks a
// concurrent removal until released — the drain contract the gateway
// builds on.
func TestAcquireDrains(t *testing.T) {
	ctx := context.Background()
	f, err := New(ctx, Config{Nodes: 2, Domain: "acquire.test.example.org"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	snap, release := f.Acquire()
	if len(snap.Endpoints) != 2 {
		t.Fatalf("acquired %d serving endpoints, want 2", len(snap.Endpoints))
	}
	removed := make(chan error, 1)
	go func() { removed <- f.RemoveNode(ctx, 1) }()

	// The removal must not complete while the admission is held. It
	// parks on the write lock.
	select {
	case err := <-removed:
		t.Fatalf("RemoveNode completed under an active admission: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if err := <-removed; err != nil {
		t.Fatal(err)
	}
	if got := f.Size(); got != 1 {
		t.Fatalf("fleet size after drain = %d, want 1", got)
	}
}
