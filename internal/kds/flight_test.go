package kds

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestConcurrentCallsCollapse(t *testing.T) {
	var g flight[int]
	var execs atomic.Int64
	var startedOnce sync.Once
	started := make(chan struct{})
	release := make(chan struct{})

	fn := func() (int, error) {
		execs.Add(1)
		startedOnce.Do(func() { close(started) })
		<-release
		return 42, nil
	}

	// Leader first: once `started` closes, the call is registered and
	// blocked on `release`.
	var wg sync.WaitGroup
	sharedCount := atomic.Int64{}
	run := func() {
		defer wg.Done()
		v, err, shared := g.Do("key", fn)
		if err != nil || v != 42 {
			t.Errorf("Do: v=%d err=%v", v, err)
		}
		if shared {
			sharedCount.Add(1)
		}
	}
	wg.Add(1)
	go run()
	<-started

	// Followers join while the leader is still in flight.
	const followers = 31
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go run()
	}
	// Give the followers ample time to reach Do before releasing the
	// leader; a follower arriving later would execute fn itself, which
	// the execs assertion below would catch.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Errorf("fn executed %d times, want 1", n)
	}
	if sharedCount.Load() != followers {
		t.Errorf("shared for %d callers, want %d", sharedCount.Load(), followers)
	}
}

func TestSequentialCallsEachExecute(t *testing.T) {
	var g flight[int]
	var execs int
	for i := 0; i < 3; i++ {
		v, err, shared := g.Do("key", func() (int, error) {
			execs++
			return execs, nil
		})
		if err != nil || shared || v != i+1 {
			t.Errorf("call %d: v=%d err=%v shared=%v", i, v, err, shared)
		}
	}
	if execs != 3 {
		t.Errorf("execs = %d, want 3", execs)
	}
}

func TestErrorsAreSharedButNotCached(t *testing.T) {
	var g flight[int]
	boom := errors.New("boom")
	if _, err, _ := g.Do("key", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// A later call retries: the failure was not remembered.
	v, err, _ := g.Do("key", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Errorf("retry: v=%d err=%v", v, err)
	}
}

func TestPanicReleasesKey(t *testing.T) {
	var g flight[int]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate to the leader")
			}
		}()
		_, _, _ = g.Do("key", func() (int, error) { panic("boom") })
	}()
	// The key must be released: a later call executes normally instead of
	// hanging on the wedged in-flight entry.
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err, _ := g.Do("key", func() (int, error) { return 9, nil })
		if err != nil || v != 9 {
			t.Errorf("after panic: v=%d err=%v", v, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("key wedged after panic")
	}
}

func TestDistinctKeysDoNotCollapse(t *testing.T) {
	var g flight[int]
	var execs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, _ = g.Do(strconv.Itoa(i), func() (int, error) {
				execs.Add(1)
				return i, nil
			})
		}(i)
	}
	wg.Wait()
	if execs.Load() != 8 {
		t.Errorf("execs = %d, want 8", execs.Load())
	}
}
