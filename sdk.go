package revelio

import (
	"context"

	"revelio/internal/certmgr"
	"revelio/internal/core"
	"revelio/internal/fleet"
	"revelio/internal/gateway"
	"revelio/internal/imagebuild"
	"revelio/internal/measure"
	"revelio/internal/registry"
)

// Core vocabulary of the SDK, under public names. These are aliases to
// the battle-tested internal implementations — not copies — so values
// flow freely between the facade, the attestation providers and the
// fleet engine.
type (
	// Measurement is a launch measurement (the unit of trust decisions).
	Measurement = measure.Measurement
	// Node is one running Revelio VM with its agent and servers.
	Node = core.Node
	// ProvisionReport reports a completed certificate-provisioning run,
	// with the paper's Table 2 timing decomposition.
	ProvisionReport = certmgr.ProvisionResult
	// ProvisionTimings decomposes one provisioning run.
	ProvisionTimings = certmgr.Timings
	// TrustRegistry is the community-governed trusted registry
	// (propose / vote / revoke / supersede). It implements
	// attestation.TrustPolicy and attestation.RevocationChecker.
	TrustRegistry = registry.Registry
	// RegistryEntry is the public state of one registered measurement.
	RegistryEntry = registry.Entry
	// BuiltImage is a reproducibly built service image.
	BuiltImage = imagebuild.Image
	// ImageManifest is the content-addressed artifact manifest auditors
	// compare across independent rebuilds.
	ImageManifest = imagebuild.Manifest

	// Fleet drives a deployment through lifecycle operations — dynamic
	// membership, certificate rotation, revocation storms, KDS outages,
	// measured-image rollouts — while the web tier keeps serving.
	Fleet = fleet.Fleet
	// FleetConfig describes a fleet.
	FleetConfig = fleet.Config
	// FleetEndpoint is one node in a fleet's published serving view.
	FleetEndpoint = fleet.Endpoint
	// FleetSnapshot is one immutable version of a fleet's serving view.
	FleetSnapshot = fleet.Snapshot

	// Gateway is the attested gateway data plane fronting a fleet (see
	// revelio/gateway: gateway.New over NewFleet's Fleet).
	Gateway = gateway.Gateway
)

// ParseMeasurement parses a hex-encoded measurement.
func ParseMeasurement(s string) (Measurement, error) { return measure.ParseMeasurement(s) }

// NewFleet builds a fleet: image, nodes, provisioning, web tier, and its
// SEV-SNP verification plane, all in one call. See FleetConfig
// for the knobs and Fleet for the lifecycle surface.
func NewFleet(ctx context.Context, cfg FleetConfig) (*Fleet, error) { return fleet.New(ctx, cfg) }

// Fleet lifecycle errors.
var (
	// ErrLastNode reports an attempt to remove a fleet's only node.
	ErrLastNode = fleet.ErrLastNode
	// ErrNoLeader reports an operation that needs a standing leader.
	ErrNoLeader = fleet.ErrNoLeader
	// ErrNodeRejected reports a node that failed the SP's attestation
	// during provisioning (the inner error carries the attestation
	// taxonomy: errors.Is it against attestation.Err*).
	ErrNodeRejected = certmgr.ErrNodeRejected
	// ErrNotReady reports an agent that has not completed provisioning.
	ErrNotReady = certmgr.ErrNotReady
)

// NewTrustRegistry creates a trusted registry requiring threshold votes
// before a proposed measurement becomes a golden value.
func NewTrustRegistry(threshold int) *TrustRegistry { return registry.New(threshold) }
