// Package gateway is Revelio's attested data plane: a TLS-terminating
// reverse proxy that turns N attested nodes into one scalable service.
//
// Downstream, the gateway serves the fleet's shared CA-issued
// certificate (resolved per handshake, so rotations propagate), which
// keeps the end-to-end client story intact: a browser running the
// Revelio extension still pins the attested TLS key and still gets its
// attestation bundle — proxied from a real node — bound to that same
// key.
//
// Upstream, every connection is RA-TLS: the gateway's connection pool
// (connpool.go) dials the nodes' upstream listeners and verifies, per
// handshake, the attestation evidence embedded in their certificates
// through an attestation verifier — the fleet's SEV-SNP provider.
// Verification is fail-closed: a node whose evidence stops verifying
// (revoked measurement, expired evidence, unknown provider) is ejected
// from rotation, and a bump of the verifier's policy revision flushes
// the pool so already-established upstreams re-prove themselves.
//
// Routing is context-aware and runs in four tiers per attempt: the
// policy filter (Config.Routing — hard rule constraints over the
// snapshot's TCB and locality context, plus canary routing
// during a staged rollout), then attestation ejection, then the circuit
// breaker, then least-pending-requests with round-robin tie-breaking
// over the survivors. The serving view is owned by a Source (the fleet
// engine) and pulled, never pushed: on every request, every probe tick
// and every Stats call. Each proxied request holds the source's
// admission (Source.Acquire) for its lifetime, which is
// the same mechanism behind the fleet's zero-failed-request drain: a
// lifecycle operation waits for admitted requests before closing a
// node, so churn never surfaces as a failed request through the proxy.
//
// A request passes four stages, in ServeHTTP's order: admit (the
// in-flight bound and the request deadline), route (the serving view
// and one routing decision), attempt (the retry loop) and stream (the
// response, or the one refusal the attempts ended in).
//
// Degradation is governed by the resilience layer (resilience.go, tuned
// by Resilience): each upstream carries a circuit breaker fed by passive
// failure observation and re-closed only by an active RA-TLS health
// probe, so transport-failed nodes, and gray-failed ones slower than the
// per-try timeout, leave rotation globally — distinct from, and
// composing with, the fail-closed attestation ejection. Retries are
// paced by exponential backoff with jitter under a fixed attempt budget,
// every attempt gets its own response-header deadline carved from the
// request deadline, and bounded in-flight admission sheds overload with
// 503 + Retry-After instead of queueing behind the serving-view lock.
package gateway

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"math/rand" //revelio:allow timeseam backoff jitter needs no replay: no test or chaos schedule depends on its values
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"revelio/attestation"
	"revelio/internal/drain"
	"revelio/internal/fleet"
	"revelio/internal/ratls"
)

var (
	// ErrNoUpstreams reports a request that found no healthy serving
	// endpoint to route to.
	ErrNoUpstreams = errors.New("gateway: no healthy upstream endpoints")
	// ErrClosed reports use of a closed gateway.
	ErrClosed = errors.New("gateway: closed")
	// errOverloaded refuses a request the gateway sheds: admission is
	// full, the deadline cannot fit one attempt, or every healthy node
	// stayed at its in-flight bound.
	errOverloaded = errors.New("gateway: overloaded, retry later")
)

// DeadlineHeader carries a request's remaining deadline budget in
// integer milliseconds. Inbound, a client (or an upstream gateway) sets
// it to bound the whole proxied request; outbound, the gateway rewrites
// it per attempt to that attempt's carved budget, so nodes — and nested
// gateways — can shed work the caller has already given up on. An
// inbound value may shorten the gateway's own 15 s bound, never lengthen
// it: a larger one is clamped to 15 s, because a request holds the
// serving-view admission that fleet drains wait on.
const DeadlineHeader = "Revelio-Deadline-Ms"

// upstreamIdleTimeout bounds how long an upstream connection may sit
// idle in the pool and still be reused: the pool closes an older one
// when an attempt would have taken it. A departed node's connections do
// not wait for it; sync's caller closes them when the view drops the
// node.
const upstreamIdleTimeout = 90 * time.Second

const (
	// maxIdleConnsPerHost bounds the idle connections the pool keeps per
	// node; a connection finishing beyond it is closed.
	maxIdleConnsPerHost = 64
	// writeTimeout bounds writing one response to a downstream client. A
	// proxied request holds the serving-view admission for its lifetime —
	// that is the zero-failed-request drain — so this timeout is also the
	// longest a stalled client can delay a fleet lifecycle operation.
	writeTimeout = 30 * time.Second
	// requestTimeout bounds a whole proxied request: the default when the
	// client sent no DeadlineHeader, the ceiling when it sent one.
	requestTimeout = 15 * time.Second
	// minDeadline is the smallest remaining deadline worth an upstream
	// attempt; below it the request sheds instead.
	minDeadline = 5 * time.Millisecond
	// maxPerUpstream bounds in-flight attempts per upstream; a node at its
	// bound is skipped like an unhealthy one.
	maxPerUpstream = 256
)

// Source publishes the serving view the gateway routes over. The fleet
// engine is the production implementation.
type Source interface {
	// Acquire admits one request: it returns the current snapshot and a
	// release func the caller invokes when the request completes.
	// Membership mutations must wait for admitted requests (the drain).
	Acquire() (fleet.Snapshot, func())
}

// Config describes a gateway.
type Config struct {
	// Source publishes the serving view (required).
	Source Source
	// Verifier judges the report bundle in each upstream's RA-TLS
	// certificate — the fleet's SEV-SNP verifier (Fleet.Mux) in
	// production (required). Its policy revision is the gateway's policy
	// epoch.
	Verifier ratls.Verifier
	// GetCertificate resolves the downstream serving certificate per
	// handshake (required for Start; ServeHTTP alone works without).
	// Fleet.ServingCertificate is the usual implementation.
	GetCertificate func() (*tls.Certificate, error)
	// Resilience tunes circuit breaking, retry budgets, deadlines, and
	// load shedding; the zero value takes every default.
	Resilience Resilience
	// Routing configures the context-aware policy layer: hard rules
	// (TCB floors and locality constraints by path class) and
	// measurement-based canary routing with auto-rollback. The zero value
	// disables the layer.
	Routing Routing
}

// upstream is the gateway's routing state for one endpoint.
type upstream struct {
	ep      fleet.Endpoint
	pending atomic.Int64
	ejected atomic.Bool
	breaker *breaker
}

// Stats is a point-in-time picture of the data plane.
type Stats struct {
	// Requests counts proxied requests admitted so far (shed requests
	// are refused before admission and do not count here).
	Requests int64
	// Retries counts upstream attempts beyond each request's first.
	Retries int64
	// SheddedRequests counts requests refused with 503 + Retry-After by
	// admission control or deadline-aware shedding.
	SheddedRequests int64
	// BreakerOpens counts closed→open circuit-breaker trips.
	BreakerOpens int64
	// ProbeSuccesses and ProbeFailures count active health probes sent
	// to breaker-open upstreams and their outcomes.
	ProbeSuccesses int64
	ProbeFailures  int64
	// Ejected lists upstream addresses currently out of rotation
	// because their attestation stopped verifying, sorted.
	Ejected []string
	// BreakerOpen lists upstream addresses whose circuit breaker is not
	// closed (open or half-open), sorted. These receive probes only.
	BreakerOpen []string
	// PolicyFlushes counts connection-pool flushes triggered by policy
	// revision changes.
	PolicyFlushes int64
	// TruncatedResponses counts proxied responses aborted mid-body
	// because the upstream copy failed after headers were sent.
	TruncatedResponses int64
	// PolicyEpoch is the gateway's policy epoch: the verifier's current
	// policy revision.
	PolicyEpoch uint64
	// ViewVersion is the serving-view version the routing table last
	// reconciled against.
	ViewVersion uint64
	// PolicyRejected counts requests refused with 503 because the
	// routing policy excluded every serving endpoint (no Retry-After:
	// unlike a shed, backing off does not help until the policy or the
	// fleet changes).
	PolicyRejected int64
	// CanaryRequests and CanaryFailures count upstream attempts that
	// landed on the staged canary measurement during the current (or
	// just-ended) rollout, and how many of them failed (transport error
	// or 5xx).
	CanaryRequests int64
	CanaryFailures int64
	// CanaryRollbacks counts canary auto-rollbacks fired over the
	// gateway's lifetime.
	CanaryRollbacks int64
	// CanaryRolledBack reports that the currently staged rollout's
	// canary measurement has been rolled back: the gateway routes no
	// traffic to it until the rollout is committed or aborted.
	CanaryRolledBack bool
	// CanaryMeasurement is the hex launch measurement of the current
	// (or last rolled-back) canary group, "" before any rollout.
	CanaryMeasurement string
}

// Gateway is the attested reverse proxy.
type Gateway struct {
	cfg Config
	res Resilience
	// perUpstream is the in-flight attempt bound per upstream:
	// maxPerUpstream, lowered only by tests before Start.
	perUpstream int64
	// inFlight counts admitted requests against res.MaxInFlight.
	inFlight atomic.Int64
	pool     *connPool
	// rt runs the data plane's attempts and probes — g.pool in
	// production, a stub in the allocation-guard tests, so the guard
	// measures the gateway's own path rather than net/http internals.
	rt     roundTripper
	router *router

	mu      sync.Mutex
	ups     map[string]*upstream // by UpstreamAddr
	version uint64
	domain  string
	closed  bool

	rr           atomic.Uint64
	requests     atomic.Int64
	retries      atomic.Int64
	shed         atomic.Int64
	breakerOpens atomic.Int64
	probeOK      atomic.Int64
	probeFail    atomic.Int64
	flushes      atomic.Int64
	truncated    atomic.Int64

	// flushedEpoch is the policy epoch the pools were last flushed at.
	flushedEpoch atomic.Uint64

	server *drain.Server
	// serverTLS is the downstream listener's TLS config (nil before
	// Start); its session-ticket key rotates on every policy-epoch bump
	// so outstanding tickets stop resuming (guarded by mu).
	serverTLS *tls.Config
	listener  net.Listener
	probeStop chan struct{}
	// bg tracks the probe loop and the probes it has in flight.
	bg sync.WaitGroup
}

// New builds a gateway over cfg. Call Start to open the listener, or
// use the Gateway directly as an http.Handler behind your own server.
func New(cfg Config) (*Gateway, error) {
	if cfg.Source == nil {
		return nil, errors.New("gateway: nil source")
	}
	if cfg.Verifier == nil {
		return nil, errors.New("gateway: nil verifier")
	}
	res := cfg.Resilience.withDefaults()
	g := &Gateway{
		cfg:         cfg,
		res:         res,
		perUpstream: maxPerUpstream,
		router:      newRouter(cfg.Routing),
		ups:         make(map[string]*upstream),
		probeStop:   make(chan struct{}),
		// No session cache: every upstream connection is a full
		// handshake whose evidence cfg.Verifier judges.
		pool: newConnPool(ratls.ProviderClientConfig(cfg.Verifier), res.Now),
	}
	g.rt = g.pool
	g.flushedEpoch.Store(cfg.Verifier.PolicyRevision())
	g.pull()
	// Probe loop, the gateway's one background goroutine: breaker-open
	// upstreams re-enter rotation only through a successful attested
	// health probe, and each tick pulls the view first, so an idle
	// gateway stops probing departed nodes within one ProbeInterval.
	g.bg.Add(1)
	go g.probeLoop()
	return g, nil
}

// pull observes the source's current snapshot outside a request, holding
// the admission only for the observation.
func (g *Gateway) pull() {
	snap, release := g.cfg.Source.Acquire()
	g.observe(snap)
	release()
}

// observe is the one way the gateway learns the serving view: it checks
// the policy epoch, then reconciles the routing table with snap, and on
// a new view closes the idle connections to nodes it no longer lists.
// Every request calls it with the snapshot it was admitted under; the
// probe tick and Stats pull one for it.
func (g *Gateway) observe(snap fleet.Snapshot) {
	g.checkPolicyEpoch()
	if g.sync(snap) {
		g.pool.retain(snap.Endpoints)
	}
}

// checkPolicyEpoch flushes the upstream pools when the verifier's policy
// revision moved since the last flush: pooled connections were verified
// under the old policy, and fail-closed means they must re-prove
// themselves under the new one. Ejections are cleared too — the policy
// change may equally have reinstated a node. Circuit breakers are left
// alone: they track transport health, not policy, and re-close only
// through a successful probe. The revision is monotone, so the CAS lets
// exactly one request flush per move, however many bumps it spans, and
// an older reading never moves the flushed epoch back.
func (g *Gateway) checkPolicyEpoch() {
	epoch := g.cfg.Verifier.PolicyRevision()
	old := g.flushedEpoch.Load()
	if epoch <= old || !g.flushedEpoch.CompareAndSwap(old, epoch) {
		return
	}
	g.flushes.Add(1)
	g.pool.closeIdle()
	g.mu.Lock()
	for _, up := range g.ups {
		up.ejected.Store(false)
	}
	serverTLS := g.serverTLS
	g.mu.Unlock()
	// Downstream resumption state is policy state: rotate the ticket key
	// so outstanding client tickets stop resuming past the old policy.
	if serverTLS != nil {
		rotateTicketKey(serverTLS)
	}
}

// sync reconciles the routing table with a snapshot, preserving pending
// counts, ejection state, and breaker state for surviving endpoints, and
// reports whether it consumed a new version. Whichever caller of observe
// sees a version first consumes it; for everyone else it is a version
// compare.
func (g *Gateway) sync(snap fleet.Snapshot) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if snap.Version <= g.version && g.version != 0 {
		return false
	}
	g.version = snap.Version
	g.domain = snap.Domain
	// Track the rollout context for canary routing: a newly staged
	// rollout resets the canary accounting, the rollout ending clears it.
	g.router.observe(snap)
	keep := make(map[string]*upstream, len(snap.Endpoints))
	for _, ep := range snap.Endpoints {
		// The fleet lists only serving nodes, but Source is public: another
		// source may list a node without an upstream listener.
		if ep.UpstreamAddr == "" {
			continue
		}
		if up, ok := g.ups[ep.UpstreamAddr]; ok {
			up.ep = ep
			keep[ep.UpstreamAddr] = up
			continue
		}
		keep[ep.UpstreamAddr] = &upstream{ep: ep, breaker: &breaker{res: &g.res}}
	}
	g.ups = keep
	return true
}

// pick selects the upstream for one attempt through the four routing
// tiers, in documented precedence order:
//
//	tier 1 — policy filter   (hard: rule constraints, rolled-back canary)
//	tier 2 — attestation ejection (fail-closed, + per-request exclusion)
//	tier 3 — circuit breaker (transport health)
//	tier 4 — least-pending balancing under the per-upstream bound
//
// The soft preference (canary fraction) narrows the surviving candidate
// set between tiers 3 and 4 but falls back to the full in-policy set
// when no preferred node is healthy — a preference never fails a
// servable request. saturated reports that healthy
// in-policy candidates existed but every one was at its in-flight bound
// — worth a paced re-pick, unlike a genuinely empty rotation. denied
// reports that serving endpoints existed but tier 1 excluded all of
// them: the request must be refused as out of policy, not retried.
func (g *Gateway) pick(d decision, sc *proxyScratch) (up *upstream, saturated, denied bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	candidates := sc.picks[:0]
	inPolicy := 0
	for _, u := range g.ups {
		if d.rule != nil && !d.rule.allows(u.ep) {
			continue
		}
		if d.avoid != nil && u.ep.Measurement == *d.avoid {
			continue
		}
		inPolicy++
		if u.ejected.Load() || excludedHas(sc.excluded, u.ep.UpstreamAddr) {
			continue
		}
		if !u.breaker.Allow() {
			continue
		}
		if u.pending.Load() >= g.perUpstream {
			saturated = true
			continue
		}
		candidates = append(candidates, u)
	}
	// Park the grown workspace before preferCandidates narrows the view:
	// the pooled slice must keep its full capacity for the next request.
	sc.picks = candidates
	if len(candidates) == 0 {
		return nil, saturated, len(g.ups) > 0 && inPolicy == 0
	}
	candidates = preferCandidates(candidates, d)
	start := int(g.rr.Add(1) % uint64(len(candidates)))
	best := candidates[start]
	bestPending := best.pending.Load()
	for i := 1; i < len(candidates); i++ {
		u := candidates[(start+i)%len(candidates)]
		if p := u.pending.Load(); p < bestPending {
			best, bestPending = u, p
		}
	}
	return best, false, false
}

// preferCandidates applies the decision's soft preference, the canary
// fraction. It narrows only when a preferred candidate exists; otherwise
// the set passes through unchanged.
func preferCandidates(candidates []*upstream, d decision) []*upstream {
	if d.canaryMeas != nil {
		sub := make([]*upstream, 0, len(candidates))
		for _, u := range candidates {
			if (u.ep.Measurement == *d.canaryMeas) == d.preferCanary {
				sub = append(sub, u)
			}
		}
		if len(sub) > 0 {
			candidates = sub
		}
	}
	return candidates
}

// isAttestationReject reports an upstream failure that means the node's
// attestation no longer verifies — the fail-closed ejection triggers —
// as against a transient transport error worth retrying elsewhere
// without ejecting.
func isAttestationReject(err error) bool {
	return errors.Is(err, attestation.ErrPolicyRejected) ||
		errors.Is(err, attestation.ErrEvidenceInvalid) ||
		errors.Is(err, attestation.ErrEvidenceExpired)
}

// isHopByHop reports the connection-scoped headers a proxy must not
// forward, by canonical name. A switch on the canonical key replaces
// the old slice walk of Del calls, so the hot path neither re-canonicalizes
// nor allocates.
func isHopByHop(k string) bool {
	switch k {
	case "Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate",
		"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return true
	}
	return false
}

// connectionNames calls fn for each header name listed in h's Connection
// header (already canonicalized), walking the comma-separated list
// without strings.Split's slice allocation. Connection-named headers are
// rare, so the canonicalization inside stays off the common path.
func connectionNames(h http.Header, fn func(name string)) {
	for _, v := range h["Connection"] {
		for v != "" {
			f := v
			if i := strings.IndexByte(v, ','); i >= 0 {
				f, v = v[:i], v[i+1:]
			} else {
				v = ""
			}
			if f = strings.TrimSpace(f); f != "" {
				fn(http.CanonicalHeaderKey(f))
			}
		}
	}
}

// stripHopByHop removes the hop-by-hop headers from h in place — used on
// response headers, which the gateway mutates before copying out.
func stripHopByHop(h http.Header) {
	connectionNames(h, func(name string) { delete(h, name) })
	for k := range h {
		if isHopByHop(k) {
			delete(h, k)
		}
	}
}

// copyOutboundHeaders fills dst (a pooled, cleared workspace) with the
// forwardable subset of the inbound headers. Value slices are shared,
// not copied — the round-tripper only reads them — so the copy allocates
// nothing beyond first-use map growth, which the pool amortizes. The
// gateway-owned headers (DeadlineHeader, X-Forwarded-For) are skipped
// here and written by forward from pooled scratch.
func copyOutboundHeaders(dst, src http.Header) {
	for k, vv := range src {
		if isHopByHop(k) || k == DeadlineHeader || k == "X-Forwarded-For" {
			continue
		}
		dst[k] = vv
	}
	// Headers named by Connection are hop-by-hop too; drop any that the
	// static set above let through.
	connectionNames(src, func(name string) { delete(dst, name) })
}

// retryable reports whether a request can be re-sent to another node
// after a failed attempt: its body must be absent or replayable.
func retryable(r *http.Request) bool {
	return r.Body == nil || r.Body == http.NoBody || r.GetBody != nil
}

// sleepCtx pauses for d, reporting false if ctx fires first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	//revelio:allow timeseam backoff must block in real time against a real ctx; an injected Now cannot fire a channel
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// ServeHTTP proxies one request to the healthiest attested node in four
// stages: admit, route, attempt, stream. The request holds the source
// admission for its lifetime, so fleet churn drains through the gateway
// exactly as it does for direct clients.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	deadline, err := g.admit(r)
	if err != nil {
		g.refuse(w, err)
		return
	}
	defer g.inFlight.Add(-1)

	sc := scratchPool.Get().(*proxyScratch)
	defer scratchPool.Put(sc)
	// LIFO with the Put above: reset runs first, also on the
	// ErrAbortHandler panic path, and abandons a tainted wire before the
	// scratch re-enters the pool.
	defer sc.reset()

	release, domain, d := g.route(r.URL.Path)
	defer release()
	resp, refusal := g.attempt(sc, r, domain, d, deadline)
	g.stream(w, sc, resp, refusal)
}

// admit is the first stage: the in-flight bound, then the request's
// deadline. It runs before the serving view is touched, so overload
// sheds promptly instead of queueing behind the drain lock. A nil error
// hands the caller one in-flight slot to give back.
func (g *Gateway) admit(r *http.Request) (time.Time, error) {
	if g.inFlight.Add(1) > int64(g.res.MaxInFlight) {
		g.inFlight.Add(-1)
		return time.Time{}, errOverloaded
	}
	timeout := requestTimeout
	if h := r.Header.Get(DeadlineHeader); h != "" {
		// Compared as a count, before the conversion could overflow: a
		// client shortens requestTimeout, never lengthens it.
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 && ms < requestTimeout.Milliseconds() {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	if timeout < minDeadline {
		// Deadline-aware shed: the caller's remaining budget cannot fit
		// even one attempt, so refuse cheaply rather than burn a node.
		g.inFlight.Add(-1)
		return time.Time{}, errOverloaded
	}
	// The request deadline is a time.Time compared against the resilience
	// clock, not a context.WithTimeout: each attempt carries it to the
	// upstream connection as that connection's deadline, so no context
	// or timer is made per request. An inbound context deadline (from a
	// fronting server or test) still wins when it is sooner.
	deadline := g.res.Now().Add(timeout)
	if dl, ok := r.Context().Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	return deadline, nil
}

// route is the second stage: it acquires the source's serving view for
// the request's lifetime, observes it, and makes the request's routing
// decision — once, so every attempt stays inside the same policy
// verdict (rule, canary side). The caller invokes release when the
// request completes.
func (g *Gateway) route(path string) (release func(), domain string, d decision) {
	snap, release := g.cfg.Source.Acquire()
	g.observe(snap)
	g.requests.Add(1)
	return release, snap.Domain, g.router.decide(path)
}

// attempt is the third stage, the retry loop. Each try is paced by
// backoff (from the second on), reads the clock once to both judge and
// carve the deadline, picks an upstream and forwards to it; a failed
// try ejects a node whose attestation no longer verifies, excludes the
// node for the rest of the request and retries when the body can be
// replayed. It returns the first response, or the one refusal the
// tries ended in.
func (g *Gateway) attempt(sc *proxyScratch, r *http.Request, domain string, d decision, deadline time.Time) (*http.Response, error) {
	ctx := r.Context()
	// refusal answers the request if no try is served. Once a try has
	// reached a node (forwards > 0), that node's failure outranks the
	// rest; before, a policy denial outranks saturation, which outranks
	// an empty rotation.
	refusal := ErrNoUpstreams
	forwards := 0
	for try := 0; try < g.res.RetryBudget; try++ {
		if try > 0 {
			// Pace the retry, clamped to the remaining deadline; give up
			// if the client hangs up mid-backoff.
			pause := min(backoff(try, g.res.BackoffBase, g.res.BackoffMax, rand.Float64()), deadline.Sub(g.res.Now()))
			if pause <= 0 || !sleepCtx(ctx, pause) {
				break
			}
		}
		remaining := deadline.Sub(g.res.Now())
		if remaining < minDeadline {
			break
		}
		up, saturated, denied := g.pick(d, sc)
		if up == nil {
			if denied || !saturated {
				// Tier 1 excluded every serving endpoint, or no healthy
				// node is left: retrying cannot help.
				if denied && forwards == 0 {
					refusal = ErrNoPolicyUpstreams
				}
				break
			}
			// Every healthy node is at its in-flight bound; the next
			// backoff may free capacity.
			if forwards == 0 {
				refusal = errOverloaded
			}
			continue
		}
		if forwards > 0 {
			// Retries counts real extra upstream attempts, so
			// Retries <= Requests*(RetryBudget-1) is the amplification
			// invariant the chaos harness asserts.
			g.retries.Add(1)
		}
		forwards++
		resp, err := g.forward(ctx, sc, up, domain, r, deadline, carve(g.res.PerTryTimeout, remaining, g.res.RetryBudget-try))
		if err == nil {
			// A 5xx is returned to the client as-is (the gateway does not
			// retry served responses), but it counts against the canary:
			// a failing canary image typically fails with clean 500s.
			g.router.recordCanary(up.ep.Measurement, resp.StatusCode >= 500)
			return resp, nil
		}
		refusal = fmt.Errorf("gateway: upstream failed: %w", err)
		expired := ctx.Err() != nil || !g.res.Now().Before(deadline)
		if !expired {
			// Canary accounting mirrors the breaker's rule: outcomes
			// the client's own deadline caused are nobody's failure.
			g.router.recordCanary(up.ep.Measurement, true)
		}
		if isAttestationReject(err) {
			// Fail closed: the node no longer proves its measured
			// state; out of rotation until the policy moves again.
			up.ejected.Store(true)
		}
		sc.excluded = append(sc.excluded, up.ep.UpstreamAddr)
		if expired || !retryable(r) {
			break
		}
	}
	return nil, refusal
}

// refuse answers a request the gateway serves no response for. Overload
// is 503 + Retry-After, the machine-readable "back off briefly" that
// tells deliberate shedding from upstream failure. A policy refusal is
// 503 without it: backing off does not help until the policy or the
// fleet changes. Anything else is 502.
func (g *Gateway) refuse(w http.ResponseWriter, refusal error) {
	switch {
	case errors.Is(refusal, errOverloaded):
		g.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, refusal.Error(), http.StatusServiceUnavailable)
	case errors.Is(refusal, ErrNoPolicyUpstreams):
		g.router.policyDeny.Add(1)
		http.Error(w, refusal.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, refusal.Error(), http.StatusBadGateway)
	}
}

// forward sends one attempt to a node over RA-TLS with perTry as its
// budget. The outbound request is assembled in sc's pooled wire scratch
// instead of r.Clone.
func (g *Gateway) forward(ctx context.Context, sc *proxyScratch, up *upstream, domain string, r *http.Request, deadline time.Time, perTry time.Duration) (*http.Response, error) {
	wire := sc.wire
	if wire == nil || wire.inFlight {
		// A wire an earlier attempt of this request tainted may still be
		// read by that attempt's body writer.
		wire = &wireScratch{hdr: make(http.Header, 16)}
		sc.wire = wire
	}
	copyOutboundHeaders(wire.hdr, r.Header)
	// Rewrite — never forward — the client's deadline header: the node
	// sees this attempt's carved budget, not whatever the client sent.
	wire.dlVal[0] = wire.msText(int64(perTry / time.Millisecond))
	wire.hdr[DeadlineHeader] = wire.dlVal[:1]
	// The gateway terminates TLS for outside clients, so it is the trust
	// boundary: any X-Forwarded-For the client sent is attacker-
	// controlled and must not reach the nodes, where it would read as an
	// upstream proxy's word on the client address. Replace, never append
	// (copyOutboundHeaders already dropped the inbound value).
	if clientIP, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		wire.xffVal[0] = clientIP
		wire.hdr["X-Forwarded-For"] = wire.xffVal[:1]
	}

	wire.url = url.URL{
		Scheme:     "https",
		Opaque:     r.URL.Opaque,
		User:       r.URL.User,
		Host:       up.ep.UpstreamAddr,
		Path:       r.URL.Path,
		RawPath:    r.URL.RawPath,
		ForceQuery: r.URL.ForceQuery,
		RawQuery:   r.URL.RawQuery,
	}
	body := r.Body
	if body == http.NoBody {
		body = nil
	}
	if r.GetBody != nil {
		b, err := r.GetBody()
		if err != nil {
			return nil, err
		}
		body = b
	}
	host := r.Host
	if domain != "" {
		host = domain
	}
	wire.req = http.Request{
		Method:           r.Method,
		URL:              &wire.url,
		Proto:            "HTTP/1.1",
		ProtoMajor:       1,
		ProtoMinor:       1,
		Header:           wire.hdr,
		Body:             body,
		GetBody:          r.GetBody,
		ContentLength:    r.ContentLength,
		TransferEncoding: r.TransferEncoding,
		Host:             host,
	}

	// The attempt's clock is the upstream connection's deadline: perTry
	// bounds the dial, the request and the response headers; once they
	// are in, the attempt has succeeded, and what is left of the request
	// deadline bounds the body, so a slow client draining a long body is
	// not mistaken for a stalled node. Both are placed on the real clock
	// the connection is judged by; the seam's reading converts the
	// request deadline.
	now := wallNow()
	tryBy, reqBy := now.Add(perTry), now.Add(deadline.Sub(g.res.Now()))

	up.pending.Add(1)
	// A body is written by a goroutine of the pool's that can outlive
	// roundTrip — after an early answer, or after an error — still
	// reading the wire's request, URL and header map, so that wire stays
	// tainted (inFlight) and reset abandons it rather than re-pool it. A
	// request without a body is written and answered on this goroutine:
	// once roundTrip returns, nothing else holds the wire.
	wire.inFlight = body != nil
	resp, err := g.rt.roundTrip(ctx, &wire.req, tryBy, reqBy)
	up.pending.Add(-1)
	if ctx.Err() == nil && g.res.Now().Before(deadline) {
		// Only outcomes the request deadline did not cause feed the
		// breaker: a client hanging up is not the node's fault.
		if up.breaker.Observe(err != nil) {
			g.breakerOpens.Add(1)
		}
	}
	return resp, err
}

// stream is the last stage: a refusal goes to refuse; a response is
// copied to the client through the pooled copy buffer, after which the
// attempt is settled. Closing the body read to EOF hands the upstream
// connection back to the pool.
func (g *Gateway) stream(w http.ResponseWriter, sc *proxyScratch, resp *http.Response, refusal error) {
	if refusal != nil {
		g.refuse(w, refusal)
		return
	}
	stripHopByHop(resp.Header)
	wh := w.Header()
	for k, vv := range resp.Header {
		wh[k] = vv
	}
	w.WriteHeader(resp.StatusCode)
	bufp := copyBufPool.Get().(*[]byte)
	// writerOnly masks the ResponseWriter's ReaderFrom so the copy
	// actually uses the pooled buffer; it lives in the scratch because a
	// fresh interface wrapper per request is itself an allocation.
	sc.wo.Writer = w
	_, err := io.CopyBuffer(&sc.wo, resp.Body, *bufp)
	sc.wo.Writer = nil
	copyBufPool.Put(bufp)
	if err != nil {
		_ = resp.Body.Close()
		// Headers and part of the body are already on the wire, so the
		// truncation cannot be turned into an error response. Abort the
		// downstream connection instead of letting the server close out
		// the encoding as if the body were complete — a silently
		// truncated 200 is worse than a torn connection.
		g.truncated.Add(1)
		panic(http.ErrAbortHandler)
	}
	_ = resp.Body.Close()
}

// probeLoop drives active health probing: every ProbeInterval it pulls
// the serving view, asks each surviving breaker whether its open dwell
// has elapsed (ProbeDue claims the half-open slot, so exactly one probe
// flies per dwell) and probes the claimed upstreams concurrently.
func (g *Gateway) probeLoop() {
	defer g.bg.Done()
	//revelio:allow timeseam probe pacing needs a real channel to select against probeStop; breaker dwell judgments stay on the seam
	ticker := time.NewTicker(g.res.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.probeStop:
			return
		case <-ticker.C:
		}
		g.pull()
		g.mu.Lock()
		domain := g.domain
		var due []*upstream
		for _, up := range g.ups {
			if up.breaker.ProbeDue() {
				due = append(due, up)
			}
		}
		g.mu.Unlock()
		for _, up := range due {
			g.bg.Add(1)
			go func(up *upstream) {
				defer g.bg.Done()
				g.probe(up, domain)
			}(up)
		}
	}
}

// probe sends one attested health check to a half-open upstream and
// reports the outcome to its breaker. Probes ride the gateway's RA-TLS
// connection pool, so a node whose attestation stopped verifying cannot
// pass, and PerTryTimeout bounds all of a probe the way it bounds an
// attempt's headers: as the connection's deadline, past which a late
// answer is never read.
func (g *Gateway) probe(up *upstream, domain string) {
	//revelio:allow ctxfirst probes are the gateway's own background process (stopped via probeStop); no caller context exists to thread
	ctx := context.Background()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"https://"+up.ep.UpstreamAddr+fleet.HealthPath, nil)
	if err != nil {
		g.probeFail.Add(1)
		up.breaker.ProbeResult(false)
		return
	}
	if domain != "" {
		req.Host = domain
	}
	by := wallNow().Add(g.res.PerTryTimeout)
	resp, err := g.rt.roundTrip(ctx, req, by, by)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if err == nil {
		// Drain through the pooled copy buffer (writerOnly masks
		// io.Discard's ReadFrom, which would otherwise bypass it).
		bufp := copyBufPool.Get().(*[]byte)
		_, _ = io.CopyBuffer(writerOnly{io.Discard}, io.LimitReader(resp.Body, 4096), *bufp)
		copyBufPool.Put(bufp)
		_ = resp.Body.Close()
	}
	if ok {
		g.probeOK.Add(1)
	} else {
		g.probeFail.Add(1)
	}
	up.breaker.ProbeResult(ok)
}

// Start opens the gateway's TLS listener on a loopback port. The
// serving certificate is resolved per handshake through
// Config.GetCertificate, so rotations reach live listeners.
func (g *Gateway) Start() error {
	if g.cfg.GetCertificate == nil {
		return errors.New("gateway: Start needs Config.GetCertificate")
	}
	// Bind the port before taking g.mu: every request holds the serving
	// view under that lock's neighbors, and a slow bind (exhausted
	// ephemeral ports, LSM hooks) must not stall them.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("gateway: listen: %w", err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		_ = ln.Close()
		return ErrClosed
	}
	if g.listener != nil {
		_ = ln.Close()
		return errors.New("gateway: already started")
	}
	serverTLS := &tls.Config{
		GetCertificate: func(*tls.ClientHelloInfo) (*tls.Certificate, error) {
			return g.cfg.GetCertificate()
		},
	}
	// Take ownership of the session-ticket key now (disabling crypto/tls's
	// automatic rotation): the key is policy state, rotated on every
	// epoch bump by checkPolicyEpoch so old tickets stop resuming.
	rotateTicketKey(serverTLS)
	tlsLn := tls.NewListener(ln, serverTLS)
	g.serverTLS = serverTLS
	g.listener = ln
	g.server = drain.New(&http.Server{
		Handler:           g,
		ReadHeaderTimeout: 10 * time.Second,
		// writeTimeout caps how long a slow or stalled client can hold
		// the serving-view admission.
		WriteTimeout: writeTimeout,
		IdleTimeout:  2 * time.Minute,
	})
	srv := g.server
	go func() { _ = srv.Serve(tlsLn) }()
	return nil
}

// Addr returns the gateway's listen address (host:port), or "" before
// Start.
func (g *Gateway) Addr() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.listener == nil {
		return ""
	}
	return g.listener.Addr().String()
}

// Stats reports the data plane's counters and current ejections, against
// the source's current view: it pulls the view first, so a departed
// node is never listed. That takes the source's admission for a moment;
// do not call Stats while holding one.
func (g *Gateway) Stats() Stats {
	g.pull()
	s := Stats{
		Requests:           g.requests.Load(),
		Retries:            g.retries.Load(),
		SheddedRequests:    g.shed.Load(),
		BreakerOpens:       g.breakerOpens.Load(),
		ProbeSuccesses:     g.probeOK.Load(),
		ProbeFailures:      g.probeFail.Load(),
		PolicyFlushes:      g.flushes.Load(),
		TruncatedResponses: g.truncated.Load(),
	}
	g.router.snapshotStats(&s)
	s.PolicyEpoch = g.cfg.Verifier.PolicyRevision()
	g.mu.Lock()
	s.ViewVersion = g.version
	for addr, up := range g.ups {
		if up.ejected.Load() {
			s.Ejected = append(s.Ejected, addr)
		}
		if up.breaker.State() != breakerClosed {
			s.BreakerOpen = append(s.BreakerOpen, addr)
		}
	}
	g.mu.Unlock()
	sort.Strings(s.Ejected)
	sort.Strings(s.BreakerOpen)
	return s
}

// Close stops the listener, the probe loop, and the upstream pools.
// Idempotent and safe for concurrent use.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	close(g.probeStop)
	server := g.server
	g.server, g.listener = nil, nil
	g.mu.Unlock()

	g.bg.Wait()
	if server != nil {
		server.Stop(2 * time.Second)
	}
	g.pool.close()
}
