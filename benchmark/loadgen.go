package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed operation, in nanoseconds since the
// generator's epoch. In the closed loop due equals sent.
type sample struct {
	due, sent, done int64
}

// obs is one timed event beside the whole-op samples — a navigation, a
// pad request, a replacement, a stall: when it happened on the
// generator's clock, and how long it took.
type obs struct {
	at, ns int64
}

// opFunc performs operation number id (ids are unique and dense across a
// run, so the seeded mix does not depend on which worker draws which id)
// and checks its output.
type opFunc func(w *worker, id int64) error

// opClass indexes the per-class service times an op may observe beside
// the whole-op sample the generator records.
type opClass int

const (
	classAttest opClass = iota
	classFollow
	classWrite
	classRead
	classAsset
	numClasses
)

// classNames name the classes; class c is gated as classNames[c]_p50_ms.
var classNames = [numClasses]string{"attest", "follow", "write", "read", "asset"}

// generator drives ops from a fixed set of workers, one operation in
// flight per worker. now and sleep are seams for the schedule tests; the
// real ones read the monotonic clock.
type generator struct {
	workers []*worker
	now     func() int64
	sleep   func(ns int64)

	seq       atomic.Int64 // next op id
	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	firstErr  error // guarded by errMu
}

func newGenerator(workers []*worker) *generator {
	epoch := time.Now()
	return &generator{
		workers: workers,
		now:     func() int64 { return int64(time.Since(epoch)) },
		sleep:   func(ns int64) { time.Sleep(time.Duration(ns)) },
	}
}

// fail counts one failed operation or output check and keeps the first
// error for the report.
func (g *generator) fail(err error) {
	g.failed.Add(1)
	g.errMu.Lock()
	if g.firstErr == nil {
		g.firstErr = err
	}
	g.errMu.Unlock()
}

func (g *generator) first() error {
	g.errMu.Lock()
	defer g.errMu.Unlock()
	return g.firstErr
}

// do runs one op — the root span of the traced pass — and returns its
// completion time.
func (g *generator) do(w *worker, op opFunc) int64 {
	g.attempted.Add(1)
	req, start := w.tr.opBegin(w.id)
	err := op(w, g.seq.Add(1)-1)
	w.tr.opEnd(req, start)
	if err != nil {
		g.fail(err)
	}
	return g.now()
}

// phase is what one generator phase yields: every op's sample, the
// per-class observations, and the wall time from first to last op.
type phase struct {
	samples []sample
	classes [numClasses][]obs
	start   int64
	elapsed int64
}

// run starts one goroutine per worker on loop, waits for all of them and
// merges what they recorded.
func (g *generator) run(loop func(w *worker, out *[]sample)) phase {
	for _, w := range g.workers {
		w.resetClasses()
	}
	outs := make([][]sample, len(g.workers))
	var wg sync.WaitGroup
	p := phase{start: g.now()}
	for k, w := range g.workers {
		outs[k] = make([]sample, 0, 1<<16)
		wg.Add(1)
		go func(w *worker, out *[]sample) {
			defer wg.Done()
			loop(w, out)
		}(w, &outs[k])
	}
	wg.Wait()
	p.elapsed = g.now() - p.start
	for k, w := range g.workers {
		p.samples = append(p.samples, outs[k]...)
		for c := range p.classes {
			p.classes[c] = append(p.classes[c], w.classes[c]...)
		}
	}
	return p
}

// open is the open-loop phase: arrival i is due at start + i/rate
// whatever the system does. A free worker claims the next arrival,
// sleeps until it is due, and sends it; an arrival whose due time has
// passed is sent at once, and its latency still counts from due, so a
// stall delays — and is charged to — every arrival queued behind it.
func (g *generator) open(rate float64, d time.Duration, op opFunc) phase {
	n := int64(rate * d.Seconds())
	interval := 1e9 / rate
	var next atomic.Int64
	var start int64
	// The start is read inside run so that set-up of the worker
	// goroutines is not charged to the first arrivals.
	var once sync.Once
	return g.run(func(w *worker, out *[]sample) {
		once.Do(func() { start = g.now() })
		for {
			i := next.Add(1) - 1
			if i >= n {
				return
			}
			due := start + int64(float64(i)*interval)
			if wait := due - g.now(); wait > 0 {
				g.sleep(wait)
			}
			sent := g.now()
			*out = append(*out, sample{due: due, sent: sent, done: g.do(w, op)})
		}
	})
}

// closed is the closed-loop phase: each worker sends its next op when
// the previous one completes, until d has passed.
func (g *generator) closed(d time.Duration, op opFunc) phase {
	end := g.now() + int64(d)
	return g.run(func(w *worker, out *[]sample) {
		for {
			sent := g.now()
			if sent >= end {
				return
			}
			*out = append(*out, sample{due: sent, sent: sent, done: g.do(w, op)})
		}
	})
}

// series extracts one duration per sample.
func series(samples []sample, f func(sample) int64) []int64 {
	out := make([]int64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func latency(s sample) int64  { return s.done - s.due }  // what a user waits, from the intended send time
func lateness(s sample) int64 { return s.sent - s.due }  // the generator's own delay
func service(s sample) int64  { return s.done - s.sent } // the system's time once sent

// interval is a background operation's wall-clock extent.
type interval struct{ start, end int64 }

// within returns the intervals that lie wholly inside [from, to].
func within(ivs []interval, from, to int64) []interval {
	var out []interval
	for _, iv := range ivs {
		if iv.start >= from && iv.end <= to {
			out = append(out, iv)
		}
	}
	return out
}

// stalls returns, for each interval that overlaps at least one sample,
// the largest latency among the samples whose [due, done] overlaps it —
// the worst wait a user saw because of that one background operation —
// filed at the interval's start.
func stalls(samples []sample, ivs []interval) []obs {
	var out []obs
	for _, iv := range ivs {
		worst, hit := int64(0), false
		for _, s := range samples {
			if s.due <= iv.end && s.done >= iv.start {
				hit = true
				if l := latency(s); l > worst {
					worst = l
				}
			}
		}
		if hit {
			out = append(out, obs{iv.start, worst})
		}
	}
	return out
}
