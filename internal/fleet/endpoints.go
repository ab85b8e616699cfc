package fleet

import (
	"crypto/tls"

	"revelio/internal/core"
	"revelio/internal/measure"
)

// Endpoint is one node in the fleet's published serving view.
type Endpoint struct {
	// ControlURL is the node's control-plane base URL (its stable
	// identity across the snapshot stream).
	ControlURL string
	// WebAddr is the CA-certified HTTPS front end (host:port).
	WebAddr string
	// UpstreamAddr is the node's RA-TLS upstream listener (host:port) —
	// what an attested gateway dials; an endpoint without one receives
	// no traffic from it.
	UpstreamAddr string
	// Leader reports whether the node holds the leader role.
	Leader bool
	// Measurement is the launch measurement the node booted with.
	Measurement measure.Measurement
	// TCB is the trusted-computing-base version the node's chip reports —
	// the same value its attestation evidence carries. Routing rules can
	// demand a floor ("only TCB ≥ X serves /payments").
	TCB uint64
	// Locality is the node's zone label (core.Config.Localities), "" in
	// unzoned deployments.
	Locality string
}

// Snapshot is one immutable version of the fleet's serving view: the
// single source of truth the zero-failed-request drain and the attested
// gateway both consume. Snapshots are totally ordered by Version.
type Snapshot struct {
	// Version increments on every membership, role or policy change.
	Version uint64
	// Domain is the service's web domain (what upstream requests carry
	// as their Host and what the shared certificate names).
	Domain string
	// LeaderURL is the standing leader's control URL.
	LeaderURL string
	// Endpoints lists the nodes that may receive traffic: each one's
	// web tier and upstream listener are up. A joining node is listed
	// only once it serves; a removal drops a node in the same drain that
	// waits out every request admitted against a view still listing it.
	Endpoints []Endpoint
	// Golden is the measurement the fleet currently trusts for new
	// launches. While a rollout is staged it is the *new* (canary) golden
	// image's measurement.
	Golden measure.Measurement
	// PriorGolden is non-nil exactly while a StageFirmware rollout is in
	// progress: it holds the pre-rollout golden measurement, so a
	// snapshot consumer (the gateway's canary router) can tell baseline
	// nodes (PriorGolden) from canary nodes (Golden) without extra
	// wiring. CommitRollOut and AbortRollOut clear it.
	PriorGolden *measure.Measurement
}

// NodeEndpoint renders one serving node's published view — the single
// mapping from a core.Node to its Endpoint, shared by the fleet engine
// and the tests that publish a static view.
// The node's web tier must be up (or stably down): callers synchronize
// with whatever starts and stops the node's servers.
func NodeEndpoint(n *core.Node, leaderURL string) Endpoint {
	return Endpoint{
		ControlURL:   n.ControlURL(),
		WebAddr:      n.WebAddr(),
		UpstreamAddr: n.UpstreamAddr(),
		Leader:       n.ControlURL() == leaderURL,
		Measurement:  n.VM.Measurement(),
		TCB:          n.TCB(),
		Locality:     n.Locality(),
	}
}

// snapshotLocked builds the current snapshot. Callers hold memberMu.
func (f *Fleet) snapshotLocked() Snapshot {
	snap := Snapshot{
		Version:   f.version,
		Domain:    f.cfg.Domain,
		LeaderURL: f.leaderURL,
		Golden:    f.golden,
	}
	if f.rolling != nil {
		prior := *f.rolling
		snap.PriorGolden = &prior
	}
	for _, n := range f.serving {
		snap.Endpoints = append(snap.Endpoints, NodeEndpoint(n, f.leaderURL))
	}
	return snap
}

// publishLocked bumps the view version and rebuilds the cached
// snapshot; consumers pull it (Acquire, Endpoints). Callers hold
// memberMu for writing.
func (f *Fleet) publishLocked() {
	f.version++
	f.snap = f.snapshotLocked()
}

// Endpoints returns the current serving-view snapshot. Snapshots are
// immutable: they are rebuilt once per change (publishLocked), so this
// — and the per-request Acquire — is a read of a cached value, not a
// rebuild.
func (f *Fleet) Endpoints() Snapshot {
	f.memberMu.RLock()
	defer f.memberMu.RUnlock()
	return f.snap
}

// Acquire admits one request against the current membership: it returns
// the serving-view snapshot plus a release func the caller must invoke
// when the request completes. Lifecycle mutations wait for every
// admitted request before touching the node set — holding the admission
// is what makes the zero-failed-request drain work, for the internal
// traffic driver and the attested gateway alike.
func (f *Fleet) Acquire() (Snapshot, func()) {
	f.memberMu.RLock()
	if f.releaseAdmission != nil {
		return f.snap, f.releaseAdmission
	}
	return f.snap, f.memberMu.RUnlock
}

// ServingCertificate returns the fleet's shared serving credential (the
// CA-issued certificate and its TEE-held key) from any ready node — what
// a TLS-terminating gateway fronting the fleet serves with. The result
// tracks rotations: call it per handshake (tls.Config.GetCertificate).
func (f *Fleet) ServingCertificate() (*tls.Certificate, error) {
	f.memberMu.RLock()
	defer f.memberMu.RUnlock()
	for _, n := range f.serving {
		if cert, err := n.Agent.ServingCertificate(); err == nil {
			return cert, nil
		}
	}
	return nil, ErrNoLeader
}
