package gateway

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"

	"revelio/internal/fleet"
	"revelio/internal/measure"
)

// ErrNoPolicyUpstreams reports a request for which serving endpoints
// exist but every one is excluded by the routing policy (a hard rule
// constraint or a rolled-back canary measurement). Distinct from
// ErrNoUpstreams (nothing healthy at all) and from load shedding
// (healthy, in-policy, but saturated).
var ErrNoPolicyUpstreams = errors.New("gateway: no upstream endpoint satisfies the routing policy")

// Routing configures the gateway's context-aware policy layer — the
// first of the four routing tiers (policy filter → attestation ejection
// → circuit breaker → least-pending balancing; see DESIGN.md
// "Context-aware routing"). The zero value disables the layer entirely:
// every healthy attested node is eligible for every request, exactly
// the pre-routing behavior.
//
// Rules are hard constraints: a request whose matched rule excludes
// every serving endpoint is refused with 503 (ErrNoPolicyUpstreams)
// rather than routed out of policy. Canary is a soft preference: it
// steers the configured fraction of traffic when canary nodes are
// healthy and falls back to the full in-policy set when none are — a
// preference never turns a servable request into a failure. The one
// exception is a rolled-back canary: after auto-rollback fires, the
// canary measurement is excluded as hard as any rule, because routing to
// it would repeat the failure that triggered the rollback.
type Routing struct {
	// Rules are evaluated per request in order; the first rule whose
	// PathPrefix matches the request path applies (an empty PathPrefix
	// matches every path, so a catch-all rule goes last). Requests
	// matching no rule are unconstrained.
	Rules []RouteRule
	// Canary configures measurement-based canary routing during a
	// staged rollout.
	Canary CanaryConfig
}

// RouteRule constrains which endpoints may serve a class of requests.
// All set constraints must hold (conjunction); zero-valued fields do
// not constrain.
type RouteRule struct {
	// Name labels the rule in documentation and operator tooling.
	Name string
	// PathPrefix selects the requests this rule governs ("" = all).
	PathPrefix string
	// MinTCB, when positive, requires the serving node's chip to report
	// at least this trusted-computing-base version.
	MinTCB uint64
	// Localities, when non-empty, restricts serving to nodes in one of
	// the named zones.
	Localities []string
}

// allows reports whether ep satisfies every constraint the rule sets.
func (r *RouteRule) allows(ep fleet.Endpoint) bool {
	if r == nil {
		return true
	}
	if r.MinTCB > 0 && ep.TCB < r.MinTCB {
		return false
	}
	if len(r.Localities) > 0 && !containsString(r.Localities, ep.Locality) {
		return false
	}
	return true
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// CanaryConfig tunes measurement-based canary routing. While a
// StageFirmware rollout is in progress (Snapshot.PriorGolden non-nil),
// nodes running the new golden image are the canary group; Weight
// percent of requests prefer them. Every attempt that lands on a
// canary-measurement node — steered or not — feeds the failure
// accounting, and when the observed failure rate reaches
// MaxFailureRate over at least MinSamples attempts the gateway rolls
// the canary back: it stops routing to the canary measurement (hard,
// until the rollout is committed or aborted) and surfaces the event in
// Stats. Rollback fires exactly once per staged rollout.
type CanaryConfig struct {
	// Weight is the percentage (0–100) of requests steered to canary
	// nodes during a rollout. 0 disables canary routing.
	Weight uint
	// MaxFailureRate is the failure-rate threshold that triggers
	// auto-rollback (default 0.5).
	MaxFailureRate float64
	// MinSamples is the minimum number of canary attempts before the
	// rate is judged (default 20) — a single unlucky request must not
	// roll a healthy image back.
	MinSamples int64
}

func (c CanaryConfig) maxFailureRate() float64 {
	if c.MaxFailureRate <= 0 {
		return 0.5
	}
	return c.MaxFailureRate
}

func (c CanaryConfig) minSamples() int64 {
	if c.MinSamples <= 0 {
		return 20
	}
	return c.MinSamples
}

// decision is one request's routing-policy verdict, computed once per
// request and applied to every pick within it.
type decision struct {
	// rule is the matched hard-constraint rule, nil when none matched.
	rule *RouteRule
	// canaryMeas, when non-nil, is the staged rollout's canary
	// measurement; preferCanary says which side of the split this
	// request falls on.
	canaryMeas   *measure.Measurement
	preferCanary bool
	// avoid, when non-nil, is a measurement excluded outright — the
	// rolled-back canary.
	avoid *measure.Measurement
}

// router holds the gateway's routing-policy state: the static config
// plus the canary tracking that follows the snapshot's rollout context.
type router struct {
	cfg         Routing
	canarySeq   atomic.Uint64 // deterministic canary-fraction counter
	hasRules    bool
	canaryOn    bool
	policyDeny  atomic.Int64 // requests refused: policy excluded all endpoints
	canaryTotal atomic.Int64 // attempts on the canary measurement, this rollout
	canaryFails atomic.Int64 // failed attempts on the canary measurement

	mu             sync.Mutex
	staged         bool
	canaryMeas     measure.Measurement
	rolledBack     bool
	rollbacks      int64               // cumulative auto-rollbacks fired
	lastCanaryMeas measure.Measurement // current or last rolled-back canary
	haveCanaryMeas bool
}

func newRouter(cfg Routing) *router {
	return &router{
		cfg:      cfg,
		hasRules: len(cfg.Rules) > 0,
		canaryOn: cfg.Canary.Weight > 0,
	}
}

// observe tracks the snapshot's rollout context. A newly staged rollout
// (PriorGolden flips non-nil, or the staged golden changes) resets the
// canary accounting; the rollout ending (PriorGolden nil — commit or
// abort) clears the staged state and lifts a rollback's exclusion,
// because trust in the canary measurement is then settled by the
// registry (committed: trusted fleet-wide; aborted: revoked, so
// attestation ejection takes over).
func (rt *router) observe(snap fleet.Snapshot) {
	if !rt.canaryOn {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if snap.PriorGolden == nil {
		rt.staged = false
		rt.rolledBack = false
		return
	}
	if rt.staged && rt.canaryMeas == snap.Golden {
		return
	}
	rt.staged = true
	rt.canaryMeas = snap.Golden
	rt.lastCanaryMeas = snap.Golden
	rt.haveCanaryMeas = true
	rt.rolledBack = false
	rt.canaryTotal.Store(0)
	rt.canaryFails.Store(0)
}

// decide computes one request's routing decision from the request path
// and the router's current rollout state.
func (rt *router) decide(path string) decision {
	var d decision
	if rt.hasRules {
		for i := range rt.cfg.Rules {
			if strings.HasPrefix(path, rt.cfg.Rules[i].PathPrefix) {
				d.rule = &rt.cfg.Rules[i]
				break
			}
		}
	}
	if rt.canaryOn {
		rt.mu.Lock()
		if rt.staged {
			m := rt.canaryMeas
			if rt.rolledBack {
				d.avoid = &m
			} else {
				d.canaryMeas = &m
				weight := rt.cfg.Canary.Weight
				if weight > 100 {
					weight = 100
				}
				d.preferCanary = uint(rt.canarySeq.Add(1)%100) < weight
			}
		}
		rt.mu.Unlock()
	}
	return d
}

// recordCanary feeds one attempt's outcome into the canary accounting
// when it landed on the staged canary measurement. It reports whether
// this very attempt tripped the auto-rollback (exactly once per staged
// rollout).
func (rt *router) recordCanary(meas measure.Measurement, failed bool) (rolledBackNow bool) {
	if !rt.canaryOn {
		return false
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !rt.staged || rt.rolledBack || meas != rt.canaryMeas {
		return false
	}
	total := rt.canaryTotal.Add(1)
	fails := rt.canaryFails.Load()
	if failed {
		fails = rt.canaryFails.Add(1)
	}
	if total >= rt.cfg.Canary.minSamples() &&
		float64(fails)/float64(total) >= rt.cfg.Canary.maxFailureRate() {
		rt.rolledBack = true
		rt.lastCanaryMeas = rt.canaryMeas
		rt.haveCanaryMeas = true
		rt.rollbacks++
		return true
	}
	return false
}

// snapshotStats copies the router's counters into s.
func (rt *router) snapshotStats(s *Stats) {
	s.PolicyRejected = rt.policyDeny.Load()
	s.CanaryRequests = rt.canaryTotal.Load()
	s.CanaryFailures = rt.canaryFails.Load()
	rt.mu.Lock()
	s.CanaryRollbacks = rt.rollbacks
	s.CanaryRolledBack = rt.rolledBack
	if rt.haveCanaryMeas {
		s.CanaryMeasurement = rt.lastCanaryMeas.String()
	}
	rt.mu.Unlock()
}
