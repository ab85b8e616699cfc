package gateway

import (
	"sync"
	"time"
)

// Resilience configures the gateway's graceful-degradation layer. The
// zero value means "all defaults"; every knob has one, and withDefaults
// is the only place it is written down.
type Resilience struct {
	// RetryBudget caps upstream attempts per request, first attempt
	// included (default 3). This — not the fleet size — bounds the
	// worst-case attempt amplification of one client request.
	RetryBudget int
	// PerTryTimeout bounds one attempt's dial + request + response
	// headers (default 2s). It is the upstream connection's deadline
	// until the headers are in, so a node that accepts the connection
	// and never answers fails the attempt instead of stalling the
	// client, and an answer it sends later is never read.
	PerTryTimeout time.Duration
	// BackoffBase and BackoffMax shape the exponential equal-jitter
	// backoff between attempts (defaults 5ms and 100ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerFailures is how many consecutive failed attempts open an
	// upstream's circuit breaker (default 3). An attempt that outlives
	// PerTryTimeout fails, so this is also the gray-failure detector.
	BreakerFailures int
	// BreakerOpenFor is the open-state dwell before an active health
	// probe may run (default 500ms).
	BreakerOpenFor time.Duration
	// ProbeInterval paces the background probe loop that re-admits
	// breaker-open upstreams (default 250ms).
	ProbeInterval time.Duration
	// MaxInFlight bounds concurrently admitted requests per gateway
	// (default 1024); beyond it requests shed with 503 + Retry-After.
	MaxInFlight int
	// Now is the clock behind request deadlines and breaker dwells
	// (default time.Now), injectable so tests can move time by hand.
	Now func() time.Time
}

func (r Resilience) withDefaults() Resilience {
	if r.RetryBudget <= 0 {
		r.RetryBudget = 3
	}
	if r.PerTryTimeout <= 0 {
		r.PerTryTimeout = 2 * time.Second
	}
	if r.BackoffBase <= 0 {
		r.BackoffBase = 5 * time.Millisecond
	}
	if r.BackoffMax <= 0 {
		r.BackoffMax = 100 * time.Millisecond
	}
	if r.BreakerFailures <= 0 {
		r.BreakerFailures = 3
	}
	if r.BreakerOpenFor <= 0 {
		r.BreakerOpenFor = 500 * time.Millisecond
	}
	if r.ProbeInterval <= 0 {
		r.ProbeInterval = 250 * time.Millisecond
	}
	if r.MaxInFlight <= 0 {
		r.MaxInFlight = 1024
	}
	if r.Now == nil {
		r.Now = time.Now //revelio:allow timeseam the gateway clock seam's single real-time default
	}
	return r
}

// wallNow reads the real clock, the one the runtime's poller judges a
// connection's deadline by: an attempt's two instants are placed on it.
// Every deadline judgment of the gateway's own stays on Resilience.Now.
func wallNow() time.Time { return time.Now() } //revelio:allow timeseam connection deadlines are judged on the real clock

// breakerState is a circuit breaker's position in its state machine.
type breakerState int32

const (
	// breakerClosed admits traffic; observations drive the trip decision.
	breakerClosed breakerState = iota
	// breakerOpen admits no traffic; after the open dwell a probe is due.
	breakerOpen
	// breakerHalfOpen admits no traffic; exactly one active probe is in
	// flight deciding whether the upstream re-enters rotation.
	breakerHalfOpen
)

// breaker is one upstream's closed/open/half-open circuit breaker.
// Traffic outcomes feed Observe; the open→half-open transition is
// claimed by ProbeDue (exactly one caller wins per dwell) and resolved
// by ProbeResult. All methods are safe for concurrent use.
type breaker struct {
	// res is the gateway's defaulted Resilience: BreakerFailures,
	// BreakerOpenFor and Now.
	res *Resilience

	mu          sync.Mutex
	state       breakerState
	consecutive int
	openedAt    time.Time
}

// State reports the current state.
func (b *breaker) State() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow reports whether regular traffic may be routed through this
// breaker: only the closed state admits traffic. Open and half-open
// upstreams receive probes only.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerClosed
}

// Observe records one traffic attempt's outcome. A failure extends the
// consecutive-failure run; a success resets it. Observe reports whether
// this observation tripped the breaker closed→open. Observations made
// while the breaker is not closed (stragglers from attempts admitted
// before the trip) are ignored: re-entry is the probes' decision.
func (b *breaker) Observe(failed bool) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerClosed {
		return false
	}
	if !failed {
		b.consecutive = 0
		return false
	}
	b.consecutive++
	if b.consecutive < b.res.BreakerFailures {
		return false
	}
	b.state = breakerOpen
	b.openedAt = b.res.Now()
	b.consecutive = 0
	return true
}

// ProbeDue claims the open→half-open transition once the open dwell has
// elapsed: the caller that receives true owns the probe and must report
// its outcome through ProbeResult. While half-open (a probe in flight)
// and during the dwell, ProbeDue returns false.
func (b *breaker) ProbeDue() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen || b.res.Now().Sub(b.openedAt) < b.res.BreakerOpenFor {
		return false
	}
	b.state = breakerHalfOpen
	return true
}

// ProbeResult resolves a half-open probe: success closes the breaker
// (the upstream re-enters rotation), failure re-opens it and restarts
// the dwell. It reports whether the breaker closed. Calls outside the
// half-open state are ignored.
func (b *breaker) ProbeResult(ok bool) (closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerHalfOpen {
		return false
	}
	if ok {
		b.state = breakerClosed
		b.consecutive = 0
		return true
	}
	b.state = breakerOpen
	b.openedAt = b.res.Now()
	return false
}

// backoff returns the pause before retry n (n = 1 is the first retry)
// for u uniform in [0, 1). The step doubles from base and is capped at
// limit; the pause is half the step fixed plus half of it scaled by u
// (equal jitter), so concurrent retriers decorrelate without ever
// retrying at once.
func backoff(retry int, base, limit time.Duration, u float64) time.Duration {
	d := base
	for i := 1; i < retry && d < limit; i++ {
		d *= 2
	}
	half := min(d, limit) / 2
	return half + time.Duration(u*float64(half))
}

// carve is one attempt's budget: the per-try ceiling, shrunk so the
// attempts still in budget (this one included) share what remains of
// the request deadline. Every request has a deadline, so a remaining at
// or below zero means it has passed, and the attempt gets the 1ms floor
// that keeps it from being created already expired — never the ceiling.
func carve(perTry, remaining time.Duration, attemptsLeft int) time.Duration {
	if attemptsLeft < 1 {
		attemptsLeft = 1
	}
	return max(min(perTry, remaining/time.Duration(attemptsLeft)), time.Millisecond)
}
