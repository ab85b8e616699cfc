// Package resilience is the graceful-degradation toolkit the attested
// data plane composes over: a per-upstream circuit breaker, a bounded
// retry policy with exponential full-spectrum jitter, admission control
// for load shedding, and per-attempt deadline carving.
//
// The pieces are deliberately mechanism, not policy: the breaker knows
// nothing about HTTP or attestation, the retry policy knows nothing
// about upstreams. The gateway wires them together — a breaker per
// upstream driven by passive failure observation plus active
// RA-TLS probes, a retry budget that caps attempt amplification at a
// configured constant (not fleet size), and an admission gate that
// turns overload into prompt 503s instead of queueing.
//
// Every time- or randomness-dependent decision takes an injectable
// clock (BreakerConfig.Now) or random source (RetryPolicy.Rand), so
// chaos schedules and regression tests replay deterministically.
package resilience

import (
	"math/rand" //revelio:allow timeseam RetryPolicy.Rand is the injection seam; this import only feeds its default
	"sync"
	"sync/atomic"
	"time"
)

// BreakerState is a circuit breaker's position in its state machine.
type BreakerState int32

const (
	// BreakerClosed admits traffic; observations drive the trip decision.
	BreakerClosed BreakerState = iota
	// BreakerOpen admits no traffic; after the open dwell a probe is due.
	BreakerOpen
	// BreakerHalfOpen admits no traffic; exactly one active probe is in
	// flight deciding whether the upstream re-enters rotation.
	BreakerHalfOpen
)

// String renders the state for stats and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig parameterizes one circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failed observations trip
	// the breaker (default 3).
	FailureThreshold int
	// OpenFor is the dwell in the open state before an active probe may
	// run (default 500ms). Each failed probe restarts the dwell.
	OpenFor time.Duration
	// Now is the clock (default time.Now) — injectable so dwell-driven
	// transitions are deterministic under test.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 500 * time.Millisecond
	}
	if c.Now == nil {
		//revelio:allow timeseam the resilience clock seam's single real-time default
		c.Now = time.Now
	}
	return c
}

// Breaker is a closed/open/half-open circuit breaker. Traffic outcomes
// feed Observe; the open→half-open transition is claimed by ProbeDue
// (exactly one caller wins per dwell) and resolved by ProbeResult. All
// methods are safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       BreakerState
	consecutive int
	openedAt    time.Time
}

// NewBreaker builds a breaker in the closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// State reports the current state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow reports whether regular traffic may be routed through this
// breaker: only the closed state admits traffic. Open and half-open
// upstreams receive probes only.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == BreakerClosed
}

// Observe records one traffic attempt's outcome. A failure extends the
// consecutive-failure run; a success resets it. Observe reports whether
// this observation tripped the breaker closed→open. Observations made
// while the breaker is not closed (stragglers from attempts admitted
// before the trip) are ignored: re-entry is the probes' decision.
func (b *Breaker) Observe(failed bool) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerClosed {
		return false
	}
	if !failed {
		b.consecutive = 0
		return false
	}
	b.consecutive++
	if b.consecutive < b.cfg.FailureThreshold {
		return false
	}
	b.state = BreakerOpen
	b.openedAt = b.cfg.Now()
	b.consecutive = 0
	return true
}

// ProbeDue claims the open→half-open transition once the open dwell has
// elapsed: the caller that receives true owns the probe and must report
// its outcome through ProbeResult. While half-open (a probe in flight)
// and during the dwell, ProbeDue returns false.
func (b *Breaker) ProbeDue() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerOpen {
		return false
	}
	if b.cfg.Now().Sub(b.openedAt) < b.cfg.OpenFor {
		return false
	}
	b.state = BreakerHalfOpen
	return true
}

// ProbeResult resolves a half-open probe: success closes the breaker
// (the upstream re-enters rotation), failure re-opens it and restarts
// the dwell. It reports whether the breaker closed. Calls outside the
// half-open state are ignored.
func (b *Breaker) ProbeResult(ok bool) (closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerHalfOpen {
		return false
	}
	if ok {
		b.state = BreakerClosed
		b.consecutive = 0
		return true
	}
	b.state = BreakerOpen
	b.openedAt = b.cfg.Now()
	return false
}

// RetryPolicy caps attempt amplification and paces retries.
type RetryPolicy struct {
	// Budget is the maximum number of upstream attempts per request,
	// first attempt included (default 3). This — not the fleet size — is
	// the worst-case amplification of one client request.
	Budget int
	// BackoffBase seeds the exponential backoff before retry n:
	// base << (n-1), capped at BackoffMax (defaults 5ms / 100ms).
	BackoffBase time.Duration
	// BackoffMax caps the backoff.
	BackoffMax time.Duration
	// Rand is the jitter source, returning values in [0, 1) (default
	// math/rand.Float64) — injectable for deterministic replay.
	Rand func() float64
}

// WithDefaults fills zero fields with the documented defaults.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.Budget <= 0 {
		p.Budget = 3
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 5 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 100 * time.Millisecond
	}
	if p.Rand == nil {
		p.Rand = rand.Float64
	}
	return p
}

// Backoff returns the pause before retry attempt n (1-based: n=1 is the
// first retry). The schedule is exponential with equal jitter: half the
// exponential step is fixed, half is uniformly random, so concurrent
// retriers decorrelate without ever returning instantly.
func (p RetryPolicy) Backoff(retry int) time.Duration {
	p = p.WithDefaults()
	if retry < 1 {
		retry = 1
	}
	d := p.BackoffBase
	for i := 1; i < retry && d < p.BackoffMax; i++ {
		d *= 2
	}
	if d > p.BackoffMax {
		d = p.BackoffMax
	}
	half := d / 2
	return half + time.Duration(p.Rand()*float64(half))
}

// CarveTry carves one attempt's budget out of a request deadline:
// the per-try ceiling, shrunk so the remaining attempts still get their
// share of the remaining deadline. remaining <= 0 means the request has
// no deadline and the per-try ceiling applies unchanged. The result is
// floored at 1ms so an attempt is never created already expired —
// callers decide separately (see Admission) whether a nearly dead
// request is worth admitting at all.
func CarveTry(perTry, remaining time.Duration, attemptsLeft int) time.Duration {
	if remaining <= 0 {
		return perTry
	}
	if attemptsLeft < 1 {
		attemptsLeft = 1
	}
	share := remaining / time.Duration(attemptsLeft)
	if share < perTry {
		perTry = share
	}
	if perTry < time.Millisecond {
		perTry = time.Millisecond
	}
	return perTry
}

// Admission is a bounded in-flight gate: TryAcquire admits a request
// while the bound holds and refuses (sheds) beyond it. It never queues
// — overload turns into an immediate, cheap refusal instead of latency.
type Admission struct {
	max      int64
	inFlight atomic.Int64
}

// NewAdmission builds a gate admitting at most max concurrent holders
// (max <= 0 means 1).
func NewAdmission(max int) *Admission {
	if max <= 0 {
		max = 1
	}
	return &Admission{max: int64(max)}
}

// TryAcquire admits one request, reporting false (and admitting
// nothing) when the gate is full. Every true return must be paired with
// exactly one Release.
func (a *Admission) TryAcquire() bool {
	if a.inFlight.Add(1) > a.max {
		a.inFlight.Add(-1)
		return false
	}
	return true
}

// Release returns one admission.
func (a *Admission) Release() { a.inFlight.Add(-1) }

// InFlight reports the current number of admitted holders.
func (a *Admission) InFlight() int64 { return a.inFlight.Load() }

// Max reports the admission bound.
func (a *Admission) Max() int64 { return a.max }
