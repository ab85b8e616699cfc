package cache

import (
	"crypto/sha256"
	"crypto/x509"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// The fence is the security property every user of this package leans
// on, so it is tested against a model: an unbounded map that remembers
// the revision and interval each value was stored under. Over random
// interleavings of every operation the cache offers, plus the three ways
// a caller invalidates without touching it (bumping its revision, its
// clock passing notAfter, its clock moving back before notBefore), a
// lookup must return exactly what the model filtered by the fence holds —
// or, where capacity may have evicted it, a miss. It must never return a
// value the fence excludes.

type modelEntry[V any] struct {
	val                 V
	rev                 uint64
	notBefore, notAfter time.Time
}

// instantiation is one of the key/value shapes the repository builds
// the cache with.
type instantiation[K comparable, V any] struct {
	new  func(capacity int) *Cache[K, V]
	key  func(i int) K
	val  func() V               // a value distinguishable from every earlier one
	same func(a, b V) bool      // identity of two values
	cap  func(capacity int) int // the most entries a cache built with capacity may hold
}

func exact(capacity int) int { return capacity }

func digest(i int) [sha256.Size]byte { return sha256.Sum256([]byte{byte(i), byte(i >> 8)}) }

func name(i int) string { return fmt.Sprintf("node-%d", i) }

// chainProof mirrors attest's proof value: the proving certificate and
// the interval it hands on.
type chainProof struct {
	vcek                *x509.Certificate
	notBefore, notAfter time.Time
}

// kdsCerts mirrors the kds client's value: a VCEK, or the ASK/ARK pair.
type kdsCerts struct {
	vcek, ask, ark *x509.Certificate
}

func TestFenceAgainstModel(t *testing.T) {
	t.Run("attest proofs", func(t *testing.T) {
		checkAgainstModel(t, instantiation[[sha256.Size]byte, chainProof]{
			new: New[[sha256.Size]byte, chainProof], key: digest, cap: exact,
			val:  func() chainProof { return chainProof{vcek: new(x509.Certificate)} },
			same: func(a, b chainProof) bool { return a == b },
		})
	})
	t.Run("kds parsed certificates", func(t *testing.T) {
		checkAgainstModel(t, instantiation[string, kdsCerts]{
			new: New[string, kdsCerts], key: name, cap: exact,
			val:  func() kdsCerts { return kdsCerts{vcek: new(x509.Certificate)} },
			same: func(a, b kdsCerts) bool { return a == b },
		})
	})
}

func checkAgainstModel[K comparable, V any](t *testing.T, in instantiation[K, V]) {
	// roomy: every key fits, so the cache must agree with the model
	// exactly. tight: keys overflow the capacity, so a miss is allowed
	// where the model holds a value, a stale or foreign value never is.
	for _, shape := range []struct {
		name           string
		capacity, keys int
	}{
		{"roomy", 1024, 24},
		{"tight", 8, 40},
	} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := in.new(shape.capacity)
			roomy := shape.keys <= shape.capacity
			model := map[K]modelEntry[V]{}
			rev := uint64(1)
			now := time.Unix(1_700_000_000, 0)
			fail := func(step int, format string, args ...any) {
				t.Helper()
				t.Fatalf("%s seed %d step %d: %s", shape.name, seed, step, fmt.Sprintf(format, args...))
			}
			for step := 0; step < 2000; step++ {
				k := in.key(rng.Intn(shape.keys))
				switch op := rng.Intn(100); {
				case op < 35: // put, bounded below or not, expiring or not
					var notBefore, notAfter time.Time
					if rng.Intn(2) > 0 {
						notBefore = now.Add(-time.Duration(rng.Intn(30)) * time.Second)
					}
					if rng.Intn(3) > 0 {
						notAfter = now.Add(time.Duration(rng.Intn(50)) * time.Second)
					}
					v := in.val()
					c.Put(k, v, rev, notBefore, notAfter)
					model[k] = modelEntry[V]{val: v, rev: rev, notBefore: notBefore, notAfter: notAfter}
					if got, ok := c.Get(k, rev, now); !ok || !in.same(got, v) {
						fail(step, "a value just stored is not served")
					}
				case op < 80: // get
					got, ok := c.Get(k, rev, now)
					want, held := model[k]
					live := held && want.rev == rev && !now.Before(want.notBefore) &&
						(want.notAfter.IsZero() || !now.After(want.notAfter))
					if held && !live {
						delete(model, k) // dropped on sight
					}
					switch {
					case ok && !live:
						fail(step, "served a value the fence excludes (held=%v)", held)
					case ok && !in.same(got, want.val):
						fail(step, "served a value other than the last one stored")
					case !ok && live && roomy:
						fail(step, "missed a live value with room to spare")
					case !ok:
						delete(model, k) // evicted: the cache will not bring it back
					}
				case op < 86: // the caller's revision moves on
					rev++
				case op < 90: // the caller's clock moves on, sometimes past every notAfter
					now = now.Add(time.Duration(rng.Intn(40)) * time.Second)
				case op < 94: // the caller's clock moves back, sometimes before every notBefore
					now = now.Add(-time.Duration(rng.Intn(40)) * time.Second)
				case op < 98:
					c.Delete(k)
					delete(model, k)
				default:
					c.Purge()
					clear(model)
				}
				if n, bound := c.Len(), in.cap(shape.capacity); n > bound {
					fail(step, "holds %d entries, bound %d", n, bound)
				}
				if roomy && c.Len() != len(model) {
					fail(step, "holds %d entries, model %d", c.Len(), len(model))
				}
			}
		}
	}
}

// TestFenceUnderConcurrency runs lookups and stores from many goroutines
// (under -race in CI) while the revision and the clock move. Each value
// records the fence it was stored under, so a reader can tell a stale
// hit from a good one without a lock-step model.
func TestFenceUnderConcurrency(t *testing.T) {
	type stamped struct {
		rev                 uint64
		notBefore, notAfter time.Time
	}
	c := New[[sha256.Size]byte, stamped](16)
	var (
		mu    sync.Mutex // guards rev and now, the callers' fence
		rev   = uint64(1)
		now   = time.Unix(1_700_000_000, 0)
		fence = func() (uint64, time.Time) {
			mu.Lock()
			defer mu.Unlock()
			return rev, now
		}
		wg sync.WaitGroup
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000; i++ {
				k := digest(rng.Intn(48))
				r, at := fence()
				switch rng.Intn(10) {
				case 0:
					mu.Lock()
					rev++
					mu.Unlock()
				case 1:
					mu.Lock()
					now = now.Add(time.Second)
					mu.Unlock()
				case 2:
					c.Purge()
				case 3, 4, 5:
					c.Put(k, stamped{r, at, at.Add(3 * time.Second)}, r, at, at.Add(3*time.Second))
				default:
					if v, ok := c.Get(k, r, at); ok && (v.rev != r || at.Before(v.notBefore) || at.After(v.notAfter)) {
						t.Errorf("stale hit: stored at rev %d from %v until %v, served at rev %d, %v", v.rev, v.notBefore, v.notAfter, r, at)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
