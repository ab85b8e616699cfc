package dmverity

import "revelio/internal/par"

// shards is the scheduler under the whole-device passes (Format,
// VerifyAll). That work decomposes into per-block units that are
// independent by construction — a Merkle leaf depends only on its
// block's bytes and index, never on its neighbours — so contiguous index
// ranges can be hashed at once without changing any byte of the tree or
// any verdict.
//
// It splits [0, n) into at most `workers` contiguous shards of
// near-equal size and runs fn(lo, hi) for each through par.Each. Every
// shard runs to completion, and the error returned is that of the
// lowest failing shard. With workers <= 1 or n small enough for a
// single shard, fn runs inline on the caller's goroutine.
func shards(workers int, n int64, fn func(lo, hi int64) error) error {
	if n <= 0 {
		return nil
	}
	w := max(min(int64(workers), n), 1)
	return par.Each(int(w), func(i int) error {
		return fn(n*int64(i)/w, n*int64(i+1)/w)
	})
}
