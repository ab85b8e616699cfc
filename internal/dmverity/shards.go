package dmverity

import "sync"

// shards is the scheduler under the whole-device passes (Format,
// VerifyAll) and long runs of missing blocks. That work decomposes into
// per-block units that are independent by construction — a Merkle leaf
// depends only on its block's bytes and index, never on its neighbours —
// so contiguous index ranges can be hashed by a pool of workers without
// changing any byte of the tree or any verdict.
//
// It splits [0, n) into at most `workers` contiguous shards of
// near-equal size and runs fn(lo, hi) for each shard concurrently. It
// returns the first error any shard reports (the others run to
// completion, as a real request queue would drain). With workers <= 1 or
// n small enough for a single shard, fn runs inline on the caller's
// goroutine — the serial path has zero scheduling overhead.
func shards(workers int, n int64, fn func(lo, hi int64) error) error {
	if n <= 0 {
		return nil
	}
	w := int64(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		return fn(0, n)
	}
	per := n / w
	rem := n % w
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	lo := int64(0)
	for i := int64(0); i < w; i++ {
		hi := lo + per
		if i < rem {
			hi++
		}
		wg.Add(1)
		go func(lo, hi int64) {
			defer wg.Done()
			if err := fn(lo, hi); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
	return firstErr
}
