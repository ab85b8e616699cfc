// Package attestation is the provider-neutral core of Revelio's public
// SDK: the interfaces and error taxonomy the attestation provider —
// hardware-backed SEV-SNP (attestation/snp) — plugs into, and that the
// RA-TLS, gateway and fleet layers speak without naming the provider.
//
// The package is a deliberate leaf: it defines vocabulary (Evidence,
// Result, Issuer, Verifier, Provider, CertSource, TrustPolicy) and the
// typed error taxonomy, but carries no provider logic, so every layer of
// the system — including the internal verification plane — can import it
// without cycles.
package attestation

import (
	"context"
	"crypto/x509"
	"encoding/json"
	"fmt"

	"revelio/internal/measure"
	"revelio/internal/sev"
)

// Evidence is the provider-tagged unit of attestation the SDK ships
// between issuers and verifiers: an opaque provider-specific document
// (an SEV-SNP report bundle) plus the payload it vouches for. A verifier
// refuses evidence tagged with any provider but its own
// (ErrUnknownProvider).
type Evidence struct {
	// Provider names the provider that issued the document ("sev-snp").
	Provider string `json:"provider"`
	// Payload is the application data the evidence binds — typically a
	// DER public key whose hash the provider embedded in the document.
	Payload []byte `json:"payload,omitempty"`
	// Document is the provider-specific evidence, JSON-encoded.
	Document json.RawMessage `json:"document"`
}

// Encode renders the evidence as JSON for transport.
func (e *Evidence) Encode() ([]byte, error) {
	out, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("attestation: encode evidence: %w", err)
	}
	return out, nil
}

// DecodeEvidence parses a JSON evidence envelope.
func DecodeEvidence(data []byte) (*Evidence, error) {
	var e Evidence
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%w: decode evidence: %v", ErrEvidenceInvalid, err)
	}
	if e.Provider == "" {
		return nil, fmt.Errorf("%w: evidence names no provider", ErrEvidenceInvalid)
	}
	return &e, nil
}

// Result is a successfully verified piece of evidence, in
// provider-neutral terms.
type Result struct {
	// Provider is the verifying provider's name.
	Provider string
	// Measurement is the attested launch measurement the policy judged.
	Measurement measure.Measurement
	// TCB is the platform's trusted-computing-base version, where the
	// provider has one (zero otherwise).
	TCB uint64
	// Payload is the application data the evidence bound.
	Payload []byte
}

// Issuer produces evidence binding a caller-chosen payload — the
// TEE-side half of a provider.
type Issuer interface {
	// Issue returns evidence whose document binds payload (typically via
	// a hash planted in the signed document).
	Issue(ctx context.Context, payload []byte) (*Evidence, error)
}

// Verifier judges evidence — the relying-party half of a provider.
// Implementations map every failure onto the package's error taxonomy.
type Verifier interface {
	// VerifyEvidence authenticates the evidence document, checks that it
	// binds ev.Payload, and judges it against the verifier's policy.
	VerifyEvidence(ctx context.Context, ev *Evidence) (*Result, error)
}

// Provider is a complete attestation provider: it can issue evidence
// (inside the TEE) and verify it (as a relying party), under a stable
// name its evidence is tagged with.
type Provider interface {
	// Name identifies the provider (the Evidence.Provider tag it stamps
	// and answers to).
	Name() string
	Issuer
	Verifier
}

// Revisioned is the optional capability a Verifier exposes when it
// caches verdicts: InvalidatePolicy bumps the revision, and every proof
// the verifier cached under an older one is dead. The verifier is the
// only layer that caches a verdict; the gateway reads the revision as its
// policy epoch, flushing its warm connection pools and rotating its
// downstream session-ticket key when it moves.
type Revisioned interface {
	// PolicyRevision returns the current policy revision.
	PolicyRevision() uint64
}

// TrustPolicy decides whether a measurement is a golden value. The
// trusted registry and static golden sets implement it.
type TrustPolicy interface {
	IsTrusted(m measure.Measurement) bool
}

// RevocationChecker is the optional refinement a TrustPolicy implements
// when it can distinguish "never trusted" from "explicitly revoked" —
// verifiers use it to map failures onto ErrRevoked instead of
// ErrUntrustedMeasurement.
type RevocationChecker interface {
	IsRevoked(m measure.Measurement) bool
}

// JudgeMeasurement maps a measurement's standing under policy onto the
// taxonomy: nil when trusted, ErrRevoked when the policy can prove
// revocation, ErrUntrustedMeasurement otherwise. A nil policy trusts
// everything (callers gate that choice).
func JudgeMeasurement(policy TrustPolicy, m measure.Measurement) error {
	if policy == nil || policy.IsTrusted(m) {
		return nil
	}
	if rc, ok := policy.(RevocationChecker); ok && rc.IsRevoked(m) {
		return fmt.Errorf("%w: %s", ErrRevoked, m)
	}
	return fmt.Errorf("%w: %s", ErrUntrustedMeasurement, m)
}

// CertSource supplies the certificates that authenticate SEV-SNP
// evidence: the VCEK for a chip/TCB pair and the ASK/ARK chain above
// it. It is the seam that decouples the verification plane from a
// concrete KDS client — an HTTP client against the (simulated) AMD KDS,
// a pre-fetched offline bundle, or a test double all satisfy it.
type CertSource interface {
	// VCEK returns the VCEK certificate for a chip at a TCB version.
	VCEK(ctx context.Context, chipID sev.ChipID, tcb uint64) (*x509.Certificate, error)
	// CertChain returns the ASK (intermediate) and ARK (root)
	// certificates, in that order.
	CertChain(ctx context.Context) (ask, ark *x509.Certificate, err error)
}
