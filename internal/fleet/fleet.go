// Package fleet is Revelio's fleet lifecycle engine: it drives a
// core.Deployment through the dynamic-membership operations a
// production service performs while the web tier keeps serving attested
// TLS traffic (§5.3's protocol, run continuously instead of once).
//
// The engine supports five churn scenarios, each with its invariants
// checked throughout:
//
//  1. Dynamic membership — AddNode/RemoveNode while traffic flows. A
//     joining node is provisioned through the single-node §5.3.1 path
//     (SP attests it, the standing leader hands it the shared key over
//     mutual attestation); a removed node drains first, leaves the SP's
//     approved set, and triggers leader re-election if it held the role.
//  2. Certificate rotation — RotateCertificates re-runs the Fig 4 flow;
//     the web tier resolves its certificate per handshake, so the old
//     certificate serves until every agent has atomically installed the
//     new one and no client connection ever fails.
//  3. Revocation storm — RevokeGolden withdraws trust in the current
//     measurement and bumps the verifier's policy revision; the
//     verifier's proof caches, the one place a verdict is cached, fail
//     closed fleet-wide on the next judgment, and every RA-TLS
//     handshake, resumed or not, asks them.
//  4. KDS outage and recovery — FailKDS blackholes the verifier-to-KDS
//     path: evidence already proven keeps verifying (policy is still
//     re-judged per hit), fresh evidence fails closed, and recovery
//     collapses the cold-start herd through singleflight.
//  5. Measured-image rollout — StageFirmware trusts the new golden
//     alongside the old (mixed fleets stay registry-consistent),
//     ReplaceNode rolls nodes one at a time, CommitRollOut revokes the
//     old measurement. In-place reboot across the measurement change is
//     rejected by the sealing layer, which is why the roll is a
//     replacement, not a reboot.
package fleet

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"revelio/attestation/snp"
	"revelio/internal/certmgr"
	"revelio/internal/core"
	"revelio/internal/firmware"
	"revelio/internal/imagebuild"
	"revelio/internal/measure"
	"revelio/internal/registry"
)

var (
	// ErrLastNode reports an attempt to remove the fleet's only node.
	ErrLastNode = errors.New("fleet: cannot remove the last node")
	// ErrNoLeader reports an operation that needs a standing leader when
	// none is ready.
	ErrNoLeader = errors.New("fleet: no ready leader")
	// ErrNodeNotReady reports a fleet node that failed an invariant check.
	ErrNodeNotReady = errors.New("fleet: node not ready")
)

// operator is the registry voter the fleet engine votes with.
const operator = "fleet-operator"

// CrashPoint names a seam inside a lifecycle operation where a crash
// hook (SetCrashHook) can abort the operation — the chaos harness uses
// these to rehearse a process dying mid-join or mid-rollout and to
// assert the engine's rollback leaves the fleet consistent.
type CrashPoint string

const (
	// CrashJoinAfterLaunch crashes a join after the node is launched
	// and registered but before it is attested and provisioned.
	CrashJoinAfterLaunch CrashPoint = "join/after-launch"
	// CrashJoinAfterProvision crashes a join after provisioning
	// completes but before the node's web tier opens.
	CrashJoinAfterProvision CrashPoint = "join/after-provision"
	// CrashRolloutMidReplace crashes a rolling upgrade between node
	// replacements, leaving a staged, mixed-measurement fleet behind.
	CrashRolloutMidReplace CrashPoint = "rollout/mid-replace"
)

// HealthPath is the node health endpoint served on every upstream
// listener (see core.HealthPath); the gateway's active breaker probes
// target it by default.
const HealthPath = core.HealthPath

// Config describes a fleet.
type Config struct {
	// Nodes is the initial fleet size.
	Nodes int
	// Domain is the service's web domain (default "fleet.example.org").
	Domain string
	// App builds the per-node application handler (nil serves only the
	// well-known attestation endpoint). New calls it for every initial
	// node at once, so it must be safe for concurrent use.
	App func(*core.Node) http.Handler
	// SPNetRTT/KDSRTT/CARTT inject the paper's network conditions.
	SPNetRTT, KDSRTT, CARTT time.Duration
	// PersistSize overrides the persistent-volume size (default 256 KiB).
	PersistSize int64
	// Localities labels nodes with zones, assigned round-robin in launch
	// order (see core.Config.Localities). The labels surface in the
	// endpoint snapshot as routing context.
	Localities []string
}

// Fleet drives a deployment through lifecycle operations.
type Fleet struct {
	d     *core.Deployment
	trust *registry.Registry
	cfg   Config

	// opMu serializes lifecycle operations (add, remove, rotate, roll).
	opMu sync.Mutex
	// memberMu guards the serving view: traffic clients hold the read
	// half per request, lifecycle mutations take the write half — so
	// acquiring it for writing *is* the connection drain.
	memberMu sync.RWMutex
	// releaseAdmission is memberMu.RUnlock bound once at construction:
	// Acquire returns it instead of allocating a fresh method value per
	// admitted request.
	releaseAdmission func()

	// serving is the load-balancer view: only nodes whose web front end
	// is fully up. A joining node enters it strictly after provisioning
	// and web start; a leaving node exits it before its servers close.
	serving []*core.Node
	// version counts serving-view changes; snap caches the immutable
	// snapshot for the current version (rebuilt by publishLocked, read
	// by Endpoints/Acquire).
	version uint64
	snap    Snapshot

	leaderURL string
	certDER   []byte
	golden    measure.Measurement
	fwVersion string               // firmware build the fleet targets
	rolling   *measure.Measurement // old golden during a staged rollout
	// rollingVersion is the firmware build the fleet was on before the
	// staged rollout — what AbortRollOut restores. Guarded by opMu, like
	// fwVersion.
	rollingVersion string

	// webTransport is the fleet's one pooled client-side transport for
	// attested-TLS traffic: every traffic driver and invariant check
	// shares its connection pool instead of opening a fresh pool (and
	// fresh handshakes) per burst. webMu guards lazy init against the
	// concurrent reap in Close.
	webMu        sync.Mutex
	webTransport *http.Transport
	webShared    *http.Client

	// crashHook, when set, is consulted at every CrashPoint; a non-nil
	// error aborts the surrounding operation as a crash there would.
	crashHook atomic.Pointer[func(CrashPoint) error]

	closeOnce sync.Once
}

// SetCrashHook installs (or, with nil, clears) the crash-point hook.
// The hook runs inside lifecycle operations at each CrashPoint; a
// non-nil return aborts the operation exactly where a real crash would,
// with the engine's usual rollback. Safe to flip while operations run.
func (f *Fleet) SetCrashHook(fn func(CrashPoint) error) {
	if fn == nil {
		f.crashHook.Store(nil)
		return
	}
	f.crashHook.Store(&fn)
}

// crash consults the installed crash hook at point p.
func (f *Fleet) crash(p CrashPoint) error {
	if fn := f.crashHook.Load(); fn != nil {
		if err := (*fn)(p); err != nil {
			return fmt.Errorf("fleet: crash injected at %s: %w", p, err)
		}
	}
	return nil
}

// SetClockSkew offsets the deployment's verification-plane clock — the
// cert-expiry-wave seam (see core.Deployment.SetClockSkew).
func (f *Fleet) SetClockSkew(skew time.Duration) { f.d.SetClockSkew(skew) }

// New builds the image, boots the initial nodes, provisions the shared
// certificate through the SP node, and opens the web tier. The trust
// policy is a live registry with the initial golden measurement voted
// in, so revocation and rollout scenarios work against the same policy
// object production would use. ctx governs the build-out: cancelling it
// aborts provisioning, and the partially built deployment is torn down
// before New returns the (wrapped) context error.
func New(ctx context.Context, cfg Config) (*Fleet, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.Domain == "" {
		cfg.Domain = "fleet.example.org"
	}
	if cfg.PersistSize <= 0 {
		cfg.PersistSize = 256 * 1024
	}

	trust := registry.New(1)
	trust.AddVoter(operator)

	imgReg := imagebuild.NewRegistry()
	base := imagebuild.PublishUbuntuBase(imgReg)
	spec := imagebuild.CryptpadSpec(base)
	spec.PersistSize = cfg.PersistSize

	d, err := core.New(core.Config{
		Spec:            spec,
		Registry:        imgReg,
		FirmwareVersion: firmware.DefaultVersion,
		Nodes:           cfg.Nodes,
		Domain:          cfg.Domain,
		SPNetRTT:        cfg.SPNetRTT,
		KDSRTT:          cfg.KDSRTT,
		CARTT:           cfg.CARTT,
		TrustRegistry:   trust,
		Localities:      cfg.Localities,
	})
	if err != nil {
		return nil, err
	}
	f := &Fleet{d: d, trust: trust, cfg: cfg, golden: d.Golden, fwVersion: firmware.DefaultVersion}
	f.releaseAdmission = f.memberMu.RUnlock
	if err := f.approveMeasurement(d.Golden, "firmware "+firmware.DefaultVersion); err != nil {
		d.Close()
		return nil, err
	}
	res, err := d.ProvisionCertificates(ctx)
	if err != nil {
		d.Close()
		return nil, err
	}
	f.leaderURL, f.certDER = res.LeaderURL, res.CertDER
	if err := d.StartWeb(cfg.App); err != nil {
		d.Close()
		return nil, err
	}
	f.memberMu.Lock()
	f.serving = append(f.serving, d.Nodes...)
	f.publishLocked()
	f.memberMu.Unlock()
	return f, nil
}

func (f *Fleet) approveMeasurement(m measure.Measurement, desc string) error {
	if err := f.trust.Propose(m, desc); err != nil {
		return err
	}
	if err := f.trust.Vote(operator, m); err != nil && !errors.Is(err, registry.ErrAlreadyVoted) {
		return err
	}
	return nil
}

// Deployment exposes the underlying core deployment.
func (f *Fleet) Deployment() *core.Deployment { return f.d }

// Mux exposes the fleet's verification plane: the deployment's shared
// SEV-SNP verifier, which judges the report bundles its nodes ship
// (their RA-TLS certificates and well-known endpoints alike).
func (f *Fleet) Mux() *snp.Verifier { return f.d.Verifier }

// Golden returns the measurement the fleet currently converges on.
func (f *Fleet) Golden() measure.Measurement {
	f.memberMu.RLock()
	defer f.memberMu.RUnlock()
	return f.golden
}

// LeaderURL returns the control URL of the standing leader.
func (f *Fleet) LeaderURL() string {
	f.memberMu.RLock()
	defer f.memberMu.RUnlock()
	return f.leaderURL
}

// Size returns the number of serving nodes.
func (f *Fleet) Size() int {
	f.memberMu.RLock()
	defer f.memberMu.RUnlock()
	return len(f.serving)
}

// Close tears the fleet down. It waits for any in-flight lifecycle
// operation to finish (opMu) and for traffic to drain (memberMu) before
// closing the deployment. Close is idempotent and safe for concurrent
// use: every call after the first is a no-op.
func (f *Fleet) Close() {
	f.closeOnce.Do(func() {
		f.opMu.Lock()
		defer f.opMu.Unlock()
		f.memberMu.Lock()
		defer f.memberMu.Unlock()
		f.serving = nil
		f.publishLocked()
		f.webMu.Lock()
		if f.webTransport != nil {
			f.webTransport.CloseIdleConnections()
		}
		f.webMu.Unlock()
		f.d.Close()
	})
}

// AddNode launches, attests and provisions one new node through the
// single-node §5.3.1 join path and opens its web front end. It returns
// the new node's index. Traffic keeps flowing throughout; the web tier
// only learns about the node once it is fully serving.
func (f *Fleet) AddNode(ctx context.Context) (int, error) {
	f.opMu.Lock()
	defer f.opMu.Unlock()
	return f.addNodeLocked(ctx)
}

func (f *Fleet) addNodeLocked(ctx context.Context) (int, error) {
	// Launch and provision happen outside the serving view: traffic
	// never routes to a node that is not fully up. The join is rolled
	// back wholesale on any failure — including a ctx cancellation mid
	// provisioning — so an aborted join never leaves a launched but
	// unserving node in the deployment.
	idx, err := f.d.AddNode(ctx)
	if err != nil {
		return 0, err
	}
	// Nothing is published before the node serves, so an aborted join
	// only takes the node back out of the deployment. The rollback must
	// complete even when the failure was ctx itself dying: a
	// launched-but-unserving node must never survive a join.
	abortJoin := func() { _, _ = f.d.RemoveNode(context.WithoutCancel(ctx), idx) }
	if err := f.crash(CrashJoinAfterLaunch); err != nil {
		abortJoin()
		return 0, err
	}
	node := f.d.Nodes[idx]
	f.memberMu.RLock()
	leaderURL, certDER := f.leaderURL, f.certDER
	f.memberMu.RUnlock()
	if err := f.d.SP.ProvisionNode(ctx, node.ControlURL(), leaderURL, certDER); err != nil {
		abortJoin()
		return 0, fmt.Errorf("fleet: provision joining node: %w", err)
	}
	if err := f.crash(CrashJoinAfterProvision); err != nil {
		abortJoin()
		return 0, err
	}
	if err := f.d.StartNodeWeb(idx); err != nil {
		abortJoin()
		return 0, fmt.Errorf("fleet: start web on joining node: %w", err)
	}
	f.memberMu.Lock()
	f.serving = append(f.serving, node)
	f.publishLocked()
	f.memberMu.Unlock()
	return idx, nil
}

// RemoveNode decommissions node i. If it holds the leader role, a
// surviving ready node is promoted first (BecomeLeader), so joins keep
// working. Acquiring the membership write lock drains in-flight traffic
// before the node's servers close — a request admitted before the
// removal always completes.
func (f *Fleet) RemoveNode(ctx context.Context, i int) error {
	f.opMu.Lock()
	defer f.opMu.Unlock()
	return f.removeNodeLocked(ctx, i)
}

func (f *Fleet) removeNodeLocked(ctx context.Context, i int) error {
	if i < 0 || i >= len(f.d.Nodes) {
		return fmt.Errorf("fleet: no node %d", i)
	}
	if len(f.d.Nodes) == 1 {
		return ErrLastNode
	}
	// Honour cancellation before any state changes; past this point the
	// removal runs to completion (a half-decommissioned node is the one
	// outcome every caller is worse off with).
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("fleet: remove node %d: %w", i, err)
	}
	node := f.d.Nodes[i]

	// Re-elect if needed and take the node out of the serving view. The
	// write lock waits out every admitted request, and no request is
	// admitted while it is waited for (sync.RWMutex admits no reader
	// behind a waiting writer), so one acquisition is the whole drain:
	// once it is held nothing is talking to the node, and once it is
	// released no view lists the node.
	f.memberMu.Lock()
	if node.ControlURL() == f.leaderURL {
		if err := f.electLeaderLocked(i); err != nil {
			f.memberMu.Unlock()
			return err
		}
	}
	for j, n := range f.serving {
		if n == node {
			f.serving = append(f.serving[:j], f.serving[j+1:]...)
			break
		}
	}
	f.publishLocked()
	f.memberMu.Unlock()

	// Past the point of no return (leader re-elected, serving view
	// updated): the deployment-level removal must complete even if the
	// caller's ctx has since died, or fleet and deployment state diverge.
	_, err := f.d.RemoveNode(context.WithoutCancel(ctx), i)
	return err
}

// electLeaderLocked promotes the first ready node other than `excluded`.
// Any provisioned node holds the shared TLS key, so promotion is purely
// a role change (certmgr.Agent.BecomeLeader).
func (f *Fleet) electLeaderLocked(excluded int) error {
	for j, n := range f.d.Nodes {
		if j == excluded || !n.Agent.Ready() {
			continue
		}
		if err := n.Agent.BecomeLeader(); err != nil {
			return fmt.Errorf("fleet: promote node %d: %w", j, err)
		}
		f.leaderURL = n.ControlURL()
		return nil
	}
	return ErrNoLeader
}

// ReplaceNode removes node i and joins a freshly launched node in its
// stead (booting whatever firmware/image the deployment currently
// targets). It returns the replacement's index.
func (f *Fleet) ReplaceNode(ctx context.Context, i int) (int, error) {
	f.opMu.Lock()
	defer f.opMu.Unlock()
	if err := f.removeNodeLocked(ctx, i); err != nil {
		return 0, err
	}
	return f.addNodeLocked(ctx)
}

// RotateCertificates re-runs the full Fig 4 provisioning over the
// current membership (SPNode.Provision: each phase over every node at
// once): fresh CA issuance for the (possibly re-elected) leader's CSR,
// distribution to the leader and then to every other agent, atomic
// install. Live
// listeners pick the new certificate up on the next handshake; clients
// connected through the rotation never see a failure because the old
// certificate serves until the install and both chain to the same CA.
func (f *Fleet) RotateCertificates(ctx context.Context) (*certmgr.ProvisionResult, error) {
	f.opMu.Lock()
	defer f.opMu.Unlock()

	f.memberMu.RLock()
	urls := make([]string, len(f.d.Nodes))
	for i, n := range f.d.Nodes {
		urls[i] = n.ControlURL()
	}
	f.memberMu.RUnlock()

	res, err := f.d.SP.Provision(ctx, urls)
	if err != nil {
		return nil, fmt.Errorf("fleet: rotate certificates: %w", err)
	}
	f.memberMu.Lock()
	f.leaderURL, f.certDER = res.LeaderURL, res.CertDER
	f.publishLocked()
	f.memberMu.Unlock()
	return res, nil
}

// RevokeGolden is the revocation storm: the registry withdraws trust in
// the fleet's current measurement and the verifier's policy revision is
// bumped. The verifier's proof caches re-judge policy on their next hit,
// and every RA-TLS handshake — resumed or not — asks them, so the whole
// fleet fails closed within this one policy revision.
func (f *Fleet) RevokeGolden() error {
	f.memberMu.RLock()
	golden := f.golden
	f.memberMu.RUnlock()
	if err := f.trust.Revoke(golden); err != nil {
		return err
	}
	f.d.Verifier.InvalidatePolicy()
	return nil
}

// FailKDS blackholes the verifier-to-KDS path with err until RestoreKDS.
// Evidence already proven keeps verifying from the proof caches (policy
// still re-judged per hit); anything needing a fresh VCEK fails closed.
func (f *Fleet) FailKDS(err error) { f.d.KDSNet().SetOutage(err) }

// RestoreKDS ends a KDS outage.
func (f *Fleet) RestoreKDS() { f.d.KDSNet().SetOutage(nil) }

// StageFirmware begins a measured-image rollout: the deployment switches
// to the new firmware build and the new golden measurement becomes
// trusted *alongside* the old one, so a mixed-measurement fleet stays
// consistent with the registry while nodes roll. A ctx cancellation
// observed before the stage completes leaves the fleet un-staged.
func (f *Fleet) StageFirmware(ctx context.Context, version string) (measure.Measurement, error) {
	f.opMu.Lock()
	defer f.opMu.Unlock()
	f.memberMu.RLock()
	staged := f.rolling != nil
	f.memberMu.RUnlock()
	if staged {
		// A second stage would orphan the first rollout's old golden —
		// CommitRollOut would never revoke it. Finish or commit first.
		return measure.Measurement{}, errors.New("fleet: a rollout is already staged")
	}
	old, oldVersion := f.Golden(), f.fwVersion
	newGolden, err := f.d.SetFirmware(ctx, version)
	if err != nil {
		return measure.Measurement{}, err
	}
	if err := f.approveMeasurement(newGolden, "firmware "+version); err != nil {
		// Leave the deployment on the firmware it was actually rolling:
		// a half-staged switch would make every future join fail closed.
		if _, restoreErr := f.d.SetFirmware(context.WithoutCancel(ctx), oldVersion); restoreErr != nil {
			return measure.Measurement{}, errors.Join(err, restoreErr)
		}
		return measure.Measurement{}, err
	}
	f.fwVersion = version
	f.rollingVersion = oldVersion
	f.memberMu.Lock()
	f.rolling = &old
	f.golden = newGolden
	f.publishLocked()
	f.memberMu.Unlock()
	return newGolden, nil
}

// CommitRollOut ends a staged rollout: the old golden measurement is
// revoked (the paper's §6.1.4 rollback defence) and the policy revision
// bumps so no cached proof of the old measurement survives.
func (f *Fleet) CommitRollOut() error {
	f.opMu.Lock()
	defer f.opMu.Unlock()
	f.memberMu.Lock()
	old := f.rolling
	f.rolling = nil
	if old != nil {
		// Snapshot consumers (the gateway's canary router) key on
		// PriorGolden being set; tell them the rollout is over.
		f.publishLocked()
	}
	f.memberMu.Unlock()
	if old == nil {
		return errors.New("fleet: no rollout staged")
	}
	f.rollingVersion = ""
	if err := f.trust.Revoke(*old); err != nil {
		return err
	}
	f.d.Verifier.InvalidatePolicy()
	return nil
}

// AbortRollOut cancels a staged rollout without adopting the new image:
// the fleet reverts to its pre-stage firmware target and golden
// measurement, the staged (canary) measurement is revoked so nothing can
// join — or keep verifying — on the aborted image, and the policy
// revision bumps so no cached proof of it survives. Remove or replace
// any node already running the staged measurement *before* aborting;
// afterwards its evidence is revoked and it fails verification (the
// emergency-revocation runbook in OPERATIONS.md walks the order). A ctx
// cancellation observed before the revert completes leaves the rollout
// staged.
func (f *Fleet) AbortRollOut(ctx context.Context) error {
	f.opMu.Lock()
	defer f.opMu.Unlock()
	f.memberMu.RLock()
	staged := f.rolling != nil
	canary := f.golden
	f.memberMu.RUnlock()
	if !staged {
		return errors.New("fleet: no rollout staged")
	}
	if _, err := f.d.SetFirmware(ctx, f.rollingVersion); err != nil {
		return fmt.Errorf("fleet: abort rollout: %w", err)
	}
	f.fwVersion = f.rollingVersion
	f.rollingVersion = ""
	f.memberMu.Lock()
	old := *f.rolling
	f.rolling = nil
	f.golden = old
	f.publishLocked()
	f.memberMu.Unlock()
	if err := f.trust.Revoke(canary); err != nil {
		return err
	}
	f.d.Verifier.InvalidatePolicy()
	return nil
}

// RollOut performs a complete rolling upgrade onto a new measured
// firmware build: stage the new golden, replace every node one at a
// time (each replacement boots the new image and joins through the
// attested key-acquisition path), then revoke the old measurement.
// Traffic keeps flowing; the fleet is mixed-measurement mid-roll and
// uniformly on the new measurement afterwards.
func (f *Fleet) RollOut(ctx context.Context, version string) (measure.Measurement, error) {
	newGolden, err := f.StageFirmware(ctx, version)
	if err != nil {
		return measure.Measurement{}, err
	}
	for i := 0; i < f.Size(); i++ {
		// Replacing index 0 n times retires every pre-roll node: removal
		// shifts survivors left while replacements append at the end.
		if _, err := f.ReplaceNode(ctx, 0); err != nil {
			return measure.Measurement{}, fmt.Errorf("fleet: roll node: %w", err)
		}
		// A crash here leaves the rollout staged and the fleet mixed-
		// measurement — recoverable by replacing the remaining old nodes
		// and committing, which is exactly what the chaos probe rehearses.
		if err := f.crash(CrashRolloutMidReplace); err != nil {
			return measure.Measurement{}, err
		}
	}
	if err := f.CommitRollOut(); err != nil {
		return measure.Measurement{}, err
	}
	return newGolden, nil
}

// webClient returns the fleet's shared HTTPS client: it trusts the
// deployment's CA, pins the service domain regardless of the per-node
// address dialed, and keeps one pooled transport for the fleet's whole
// life — traffic bursts reuse warm connections instead of re-handshaking
// per burst. Close reaps the pool.
func (f *Fleet) webClient() *http.Client {
	f.webMu.Lock()
	defer f.webMu.Unlock()
	if f.webShared == nil {
		f.webTransport = &http.Transport{
			TLSClientConfig: &tls.Config{
				RootCAs:    f.d.CARootPool(),
				ServerName: f.cfg.Domain,
				// Session resumption across the pool: reconnects skip
				// the full handshake.
				ClientSessionCache: tls.NewLRUClientSessionCache(0),
			},
			// Steady-state bursts run tens of concurrent clients against
			// a handful of nodes; keep enough warm connections per node
			// that none of them re-handshakes mid-burst.
			MaxIdleConnsPerHost: 64,
		}
		f.webShared = &http.Client{Transport: f.webTransport, Timeout: 10 * time.Second}
	}
	return f.webShared
}

// VerifyFleet checks the full-fleet invariant an auditor cares about:
// every node is provisioned, serving, and its well-known attestation
// bundle verifies under the current trust policy. Verification runs
// through the deployment's shared verifier, so it exercises (and is
// protected by) the attestation fast path.
func (f *Fleet) VerifyFleet(ctx context.Context) error {
	f.memberMu.RLock()
	nodes := append([]*core.Node(nil), f.serving...)
	f.memberMu.RUnlock()
	client := f.webClient()
	for i, n := range nodes {
		if !n.Agent.Ready() {
			return fmt.Errorf("%w: node %d", ErrNodeNotReady, i)
		}
		addr := n.WebAddr()
		if addr == "" {
			return fmt.Errorf("%w: node %d has no web front end", ErrNodeNotReady, i)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			"https://"+addr+certmgr.WellKnownPath, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("fleet: node %d attestation endpoint: %w", i, err)
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		_ = resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("fleet: node %d attestation endpoint: status %d", i, resp.StatusCode)
		}
		bundle, err := snp.DecodeBundle(body)
		if err != nil {
			return fmt.Errorf("fleet: node %d bundle: %w", i, err)
		}
		if _, err := f.Mux().VerifyEvidence(ctx, bundle); err != nil {
			return fmt.Errorf("fleet: node %d failed attestation: %w", i, err)
		}
	}
	return nil
}
