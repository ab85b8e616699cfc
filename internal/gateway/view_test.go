package gateway

import (
	"sync"

	"revelio/internal/fleet"
	"revelio/internal/measure"
)

// View is the tests' fake Source: a static, republishable serving view
// for topologies built without a fleet engine. Set replaces the view
// under the write half of the admission lock, so — exactly as in the
// fleet engine — a membership change drains every admitted request
// before it lands.
type View struct {
	mu   sync.RWMutex
	snap fleet.Snapshot
	// release is the precomputed Acquire release func: the method value
	// v.mu.RUnlock, bound once here instead of allocated per request.
	release func()
}

var _ Source = (*View)(nil)

// NewView creates a view with the given endpoints (version 1).
func NewView(domain string, eps ...fleet.Endpoint) *View {
	v := &View{
		snap: fleet.Snapshot{Version: 1, Domain: domain, Endpoints: eps},
	}
	v.release = v.mu.RUnlock
	return v
}

// Set replaces the view's endpoints. It returns only after every
// request admitted against the previous view has released — the drain a
// caller relies on before closing a departed endpoint's servers.
func (v *View) Set(eps ...fleet.Endpoint) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.snap.Version++
	v.snap.Endpoints = eps
}

// SetRollout publishes rollout context alongside the endpoints: golden
// is the measurement new launches target (the canary image while a
// rollout is staged), and prior — non-nil exactly while a rollout is in
// progress — the pre-rollout golden. The fleet engine publishes the
// same context from StageFirmware/CommitRollOut/AbortRollOut; View
// owners stage and clear it explicitly.
func (v *View) SetRollout(golden measure.Measurement, prior *measure.Measurement) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.snap.Version++
	v.snap.Golden = golden
	if prior != nil {
		p := *prior
		v.snap.PriorGolden = &p
	} else {
		v.snap.PriorGolden = nil
	}
}

// consumedBy reports whether g has reconciled its routing table with the
// view's current version — read from g's own state, because Stats would
// pull the view itself.
func (v *View) consumedBy(g *Gateway) bool {
	v.mu.RLock()
	want := v.snap.Version
	v.mu.RUnlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.version == want
}

// Acquire implements Source.
func (v *View) Acquire() (fleet.Snapshot, func()) {
	v.mu.RLock()
	return v.snap, v.release
}
