package fleet

import (
	"context"
	"errors"
	"testing"
)

// TestCrashMidJoinRollsBack: a crash injected at either join crash point
// aborts the join, and the engine's rollback leaves the fleet at its old
// size with the deployment consistent and still serviceable. The joining
// node is never published: the view at the crash lists only serving
// nodes, and the aborted join leaves the view version where it was.
func TestCrashMidJoinRollsBack(t *testing.T) {
	f := newTestFleet(t, 2)
	ctx := context.Background()
	boom := errors.New("injected crash")
	for _, point := range []CrashPoint{CrashJoinAfterLaunch, CrashJoinAfterProvision} {
		point := point
		var atCrash Snapshot
		f.SetCrashHook(func(p CrashPoint) error {
			if p == point {
				atCrash = f.Endpoints()
				return boom
			}
			return nil
		})
		before := f.Endpoints().Version
		if _, err := f.AddNode(ctx); !errors.Is(err, boom) {
			t.Fatalf("AddNode with crash at %s: err = %v, want %v", point, err, boom)
		}
		for _, ep := range atCrash.Endpoints {
			if ep.WebAddr == "" || ep.UpstreamAddr == "" {
				t.Errorf("crash at %s: view lists %s, which does not serve", point, ep.ControlURL)
			}
		}
		if got := f.Endpoints().Version; got != before {
			t.Errorf("crash at %s: aborted join moved the view version %d -> %d", point, before, got)
		}
		if got := f.Size(); got != 2 {
			t.Fatalf("crash at %s: size = %d, want 2", point, got)
		}
		if got := len(f.d.Nodes); got != 2 {
			t.Fatalf("crash at %s: deployment has %d nodes, want 2", point, got)
		}
	}
	f.SetCrashHook(nil)
	if _, err := f.AddNode(ctx); err != nil {
		t.Fatalf("join after hook cleared: %v", err)
	}
	if err := f.VerifyFleet(ctx); err != nil {
		t.Fatalf("fleet not verifiable after crash recovery: %v", err)
	}
}

// TestCrashMidRolloutResumable: a crash between node replacements leaves
// a staged, mixed-measurement fleet that still verifies (both goldens
// trusted), and the rollout can be resumed to completion by replacing
// the remaining old-measurement nodes and committing.
func TestCrashMidRolloutResumable(t *testing.T) {
	f := newTestFleet(t, 2)
	ctx := context.Background()
	boom := errors.New("injected crash")
	f.SetCrashHook(func(p CrashPoint) error {
		if p == CrashRolloutMidReplace {
			return boom
		}
		return nil
	})
	if _, err := f.RollOut(ctx, "2026.01"); !errors.Is(err, boom) {
		t.Fatalf("RollOut: err = %v, want %v", err, boom)
	}
	if err := f.VerifyFleet(ctx); err != nil {
		t.Fatalf("mixed fleet after crash: %v", err)
	}
	f.SetCrashHook(nil)
	// Resume: replace whatever still runs the old measurement, commit.
	for {
		old := -1
		f.memberMu.RLock()
		for i, n := range f.d.Nodes {
			if n.VM.Measurement() != f.golden {
				old = i
				break
			}
		}
		f.memberMu.RUnlock()
		if old < 0 {
			break
		}
		if _, err := f.ReplaceNode(ctx, old); err != nil {
			t.Fatalf("resume rollout: %v", err)
		}
	}
	if err := f.CommitRollOut(); err != nil {
		t.Fatalf("CommitRollOut after resume: %v", err)
	}
	if err := f.VerifyFleet(ctx); err != nil {
		t.Fatalf("fleet after resumed rollout: %v", err)
	}
}
