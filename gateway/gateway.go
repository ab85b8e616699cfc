// Package gateway is the public face of Revelio's attested data plane:
// a TLS-terminating reverse proxy that load-balances across a fleet of
// attested nodes, dialing every upstream over RA-TLS so a node that
// stops proving its measured state is ejected from rotation.
//
// The usual wiring is a gateway over a fleet — the fleet owns the
// membership, the gateway pulls its serving view on every request and
// every probe tick:
//
//	f, err := revelio.NewFleet(ctx, revelio.FleetConfig{Nodes: 8})
//	gw, err := gateway.New(gateway.Config{
//		Source:         f,                      // the fleet's serving view
//		Verifier:       f.Mux(),                // RA-TLS upstream trust
//		GetCertificate: f.ServingCertificate,   // downstream termination
//	})
//	err = gw.Start()
//	// browsers navigate to gw.Addr() and still see the attested origin
//
// Routing is context-aware: Config.Routing evaluates operator policy
// over each node's published attestation context (TCB version,
// locality, launch measurement) per request. Hard rules pin route
// classes to constraints ("only TCB ≥ 8 serves /payments"). During a
// staged firmware rollout, canary routing steers a configured fraction
// of traffic to nodes on the new measurement and rolls it back
// automatically — routing away from the canary and surfacing the event
// in Stats — when its failure rate crosses the threshold. The policy
// filter is tier 1 of the decision order; attestation ejection, the
// circuit breaker, and least-pending balancing with round-robin
// tie-breaking follow. Fleet churn drains through the gateway (zero
// failed requests), and a policy-revision bump flushes the upstream
// pools so revocations bite on the very next handshake.
//
// Each request is admitted, routed, attempted and streamed, in that
// order. Degradation under failure and overload is governed by Config's
// Resilience knobs, whose zero value takes every default: per-upstream
// circuit breakers fed by failed attempts — a node slower than the
// per-try timeout counts as failed — with active attested health probes
// re-admitting recovered nodes, a fixed retry budget with jittered
// backoff, per-attempt deadlines carved from the request deadline
// (propagated via DeadlineHeader; once it has passed, an attempt gets
// 1ms, never the full per-try budget), and bounded-in-flight admission
// that sheds overload with 503 + Retry-After.
package gateway

import (
	"revelio/internal/fleet"
	igateway "revelio/internal/gateway"
)

type (
	// Gateway is the attested reverse proxy.
	Gateway = igateway.Gateway
	// Config describes a gateway (source, verifier, certificate).
	Config = igateway.Config
	// Source publishes the serving view a gateway routes over; Fleet
	// implements it.
	Source = igateway.Source
	// Stats is a point-in-time picture of the data plane.
	Stats = igateway.Stats
	// Resilience tunes circuit breaking, retry budgets, deadline
	// propagation, and load shedding (zero value = all defaults).
	Resilience = igateway.Resilience
	// Routing configures the context-aware policy layer: hard rules and
	// canary routing (zero value = disabled).
	Routing = igateway.Routing
	// RouteRule pins a path class to TCB / locality constraints; all
	// set constraints must hold.
	RouteRule = igateway.RouteRule
	// CanaryConfig tunes measurement-based canary routing during a
	// staged rollout: steer Weight percent to the new measurement,
	// auto-rollback past MaxFailureRate over MinSamples attempts.
	CanaryConfig = igateway.CanaryConfig

	// Snapshot is one immutable version of a serving view.
	Snapshot = fleet.Snapshot
	// Endpoint is one node in a serving view.
	Endpoint = fleet.Endpoint
)

const (
	// DeadlineHeader carries a request's remaining deadline budget in
	// integer milliseconds: clients set it to bound the proxied request;
	// the gateway rewrites it per attempt with that attempt's carved
	// budget. A client may shorten the gateway's 15 s bound, not lengthen
	// it: larger values are clamped to 15 s, since a request holds the
	// serving-view admission that fleet drains wait on.
	DeadlineHeader = igateway.DeadlineHeader
	// HealthPath is the node health endpoint active breaker probes hit
	// over RA-TLS.
	HealthPath = fleet.HealthPath
)

var (
	// ErrNoUpstreams reports a request with no healthy endpoint to
	// route to.
	ErrNoUpstreams = igateway.ErrNoUpstreams
	// ErrClosed reports use of a closed gateway.
	ErrClosed = igateway.ErrClosed
	// ErrNoPolicyUpstreams reports a request every serving endpoint was
	// excluded from by the routing policy (503, no Retry-After).
	ErrNoPolicyUpstreams = igateway.ErrNoPolicyUpstreams
)

// New builds a gateway over cfg; Start opens its TLS listener.
func New(cfg Config) (*Gateway, error) { return igateway.New(cfg) }
