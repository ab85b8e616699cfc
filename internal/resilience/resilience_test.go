package resilience

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable clock for deterministic dwell tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenFor: time.Second, Now: clk.Now})

	if !b.Allow() {
		t.Fatal("fresh breaker must allow traffic")
	}
	if b.Observe(true) {
		t.Fatal("first failure must not trip")
	}
	if b.Observe(true) {
		t.Fatal("second failure must not trip")
	}
	if !b.Observe(true) {
		t.Fatal("third consecutive failure must trip")
	}
	if b.Allow() {
		t.Fatal("open breaker must not allow traffic")
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
}

func TestBreakerSuccessResetsRun(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 2})
	b.Observe(true)
	b.Observe(false) // a success resets the consecutive run
	if b.Observe(true) {
		t.Fatal("failure after reset must not trip at threshold 2")
	}
	if !b.Observe(true) {
		t.Fatal("second consecutive failure must trip")
	}
}

func TestBreakerIgnoresObservationsWhileNotClosed(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenFor: time.Second, Now: clk.Now})
	b.Observe(true)
	// Straggler success from an attempt admitted before the trip must not
	// silently close the breaker — re-entry is the probe's decision.
	b.Observe(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after straggler success = %v, want open", got)
	}
}

func TestBreakerProbeLifecycle(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenFor: time.Second, Now: clk.Now})
	b.Observe(true)

	if b.ProbeDue() {
		t.Fatal("probe must not be due before the open dwell elapses")
	}
	clk.Advance(time.Second)
	if !b.ProbeDue() {
		t.Fatal("probe must be due after the dwell")
	}
	if b.ProbeDue() {
		t.Fatal("only one caller may claim the probe")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	if b.Allow() {
		t.Fatal("half-open breaker must not admit regular traffic")
	}

	// Failed probe restarts the dwell.
	if b.ProbeResult(false) {
		t.Fatal("failed probe must not close the breaker")
	}
	if b.ProbeDue() {
		t.Fatal("dwell must restart after a failed probe")
	}
	clk.Advance(time.Second)
	if !b.ProbeDue() {
		t.Fatal("probe must be due after the restarted dwell")
	}
	if !b.ProbeResult(true) {
		t.Fatal("successful probe must close the breaker")
	}
	if !b.Allow() {
		t.Fatal("closed breaker must admit traffic again")
	}

	// ProbeResult outside half-open is a no-op.
	if b.ProbeResult(false) {
		t.Fatal("ProbeResult while closed must be ignored")
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed", got)
	}
}

func TestBackoffDeterministicUnderInjectedRand(t *testing.T) {
	seq := []float64{0, 0.5, 0.999, 0, 0.5}
	i := 0
	p := RetryPolicy{
		BackoffBase: 8 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Rand:        func() float64 { v := seq[i%len(seq)]; i++; return v },
	}

	// Equal jitter: half fixed, half random. Exponential step doubles
	// from base and caps at max: retry 1 → 8ms, 2 → 16ms, 3+ → 20ms.
	cases := []struct {
		retry int
		want  time.Duration
	}{
		{1, 4 * time.Millisecond},                        // 8/2 + 0*4
		{2, 12 * time.Millisecond},                       // 16/2 + 0.5*8
		{3, 10*time.Millisecond + 9990*time.Microsecond}, // 20/2 + .999*10
		{4, 10 * time.Millisecond},                       // capped at max
		{0, 4*time.Millisecond + 2*time.Millisecond},     // clamped to retry 1, rand=.5
	}
	for _, c := range cases {
		if got := p.Backoff(c.retry); got != c.want {
			t.Fatalf("Backoff(%d) = %v, want %v", c.retry, got, c.want)
		}
	}

	// Same rand sequence replays byte-for-byte.
	i = 0
	first := []time.Duration{p.Backoff(1), p.Backoff(2), p.Backoff(3)}
	i = 0
	second := []time.Duration{p.Backoff(1), p.Backoff(2), p.Backoff(3)}
	for k := range first {
		if first[k] != second[k] {
			t.Fatalf("replay diverged at %d: %v vs %v", k, first[k], second[k])
		}
	}
}

func TestBackoffNeverZeroAndBounded(t *testing.T) {
	p := RetryPolicy{BackoffBase: 2 * time.Millisecond, BackoffMax: 50 * time.Millisecond}
	for retry := 1; retry <= 12; retry++ {
		d := p.Backoff(retry)
		if d <= 0 {
			t.Fatalf("Backoff(%d) = %v, must be positive", retry, d)
		}
		if d > 50*time.Millisecond {
			t.Fatalf("Backoff(%d) = %v exceeds the cap", retry, d)
		}
	}
}

func TestCarveTry(t *testing.T) {
	cases := []struct {
		name         string
		perTry       time.Duration
		remaining    time.Duration
		attemptsLeft int
		want         time.Duration
	}{
		{"no deadline", 2 * time.Second, 0, 3, 2 * time.Second},
		{"ample deadline", 2 * time.Second, 30 * time.Second, 3, 2 * time.Second},
		{"tight deadline splits", 2 * time.Second, 3 * time.Second, 3, time.Second},
		{"single attempt gets remainder", 2 * time.Second, 1500 * time.Millisecond, 1, 1500 * time.Millisecond},
		{"floor at 1ms", 2 * time.Second, 100 * time.Microsecond, 2, time.Millisecond},
		{"attemptsLeft clamped", 2 * time.Second, time.Second, 0, time.Second},
	}
	for _, c := range cases {
		if got := CarveTry(c.perTry, c.remaining, c.attemptsLeft); got != c.want {
			t.Fatalf("%s: CarveTry(%v, %v, %d) = %v, want %v",
				c.name, c.perTry, c.remaining, c.attemptsLeft, got, c.want)
		}
	}
}

func TestAdmissionBound(t *testing.T) {
	a := NewAdmission(2)
	if a.Max() != 2 {
		t.Fatalf("Max = %d, want 2", a.Max())
	}
	if !a.TryAcquire() || !a.TryAcquire() {
		t.Fatal("gate must admit up to its bound")
	}
	if a.TryAcquire() {
		t.Fatal("gate must refuse beyond its bound")
	}
	a.Release()
	if !a.TryAcquire() {
		t.Fatal("gate must admit again after a release")
	}
	a.Release()
	a.Release()
	if got := a.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d, want 0", got)
	}
}

func TestAdmissionConcurrentNeverExceedsBound(t *testing.T) {
	const bound = 8
	a := NewAdmission(bound)
	var wg sync.WaitGroup
	var peakViolations int64
	var mu sync.Mutex
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if a.TryAcquire() {
					if n := a.InFlight(); n > bound {
						mu.Lock()
						peakViolations++
						mu.Unlock()
					}
					a.Release()
				}
			}
		}()
	}
	wg.Wait()
	if peakViolations > 0 {
		t.Fatalf("in-flight exceeded the bound %d times", peakViolations)
	}
	if got := a.InFlight(); got != 0 {
		t.Fatalf("InFlight after drain = %d, want 0", got)
	}
}

func TestNewAdmissionClampsBound(t *testing.T) {
	a := NewAdmission(0)
	if a.Max() != 1 {
		t.Fatalf("Max = %d, want clamp to 1", a.Max())
	}
}

func TestBreakerStateString(t *testing.T) {
	for want, s := range map[string]BreakerState{
		"closed":    BreakerClosed,
		"open":      BreakerOpen,
		"half-open": BreakerHalfOpen,
		"unknown":   BreakerState(99),
	} {
		if got := s.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", int32(s), got, want)
		}
	}
}
