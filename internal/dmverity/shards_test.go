package dmverity

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestShardsCoverRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 64} {
		for _, n := range []int64{0, 1, 2, 5, 63, 64, 65, 1000} {
			var count atomic.Int64
			seen := make([]atomic.Bool, n)
			err := shards(workers, n, func(lo, hi int64) error {
				if lo < 0 || hi > n || lo >= hi {
					return errors.New("bad shard bounds")
				}
				for i := lo; i < hi; i++ {
					if seen[i].Swap(true) {
						return errors.New("index visited twice")
					}
					count.Add(1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			if count.Load() != n {
				t.Errorf("workers=%d n=%d: visited %d indices", workers, n, count.Load())
			}
		}
	}
}

func TestShardsReportError(t *testing.T) {
	want := errors.New("shard failed")
	err := shards(4, 100, func(lo, hi int64) error {
		if lo == 0 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Errorf("err = %v, want %v", err, want)
	}
	// With every shard failing, the lowest range's error is returned.
	err = shards(4, 100, func(lo, hi int64) error {
		return fmt.Errorf("shard [%d,%d)", lo, hi)
	})
	if err == nil || err.Error() != "shard [0,25)" {
		t.Errorf("err = %v, want the lowest shard's", err)
	}
}

func TestShardsSerialRunsInline(t *testing.T) {
	calls := 0
	if err := shards(1, 10, func(lo, hi int64) error {
		calls++
		if lo != 0 || hi != 10 {
			t.Errorf("shard = [%d,%d), want [0,10)", lo, hi)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
}
