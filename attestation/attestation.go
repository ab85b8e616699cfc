// Package attestation is the leaf of Revelio's public SDK: the typed
// error taxonomy every verification failure maps onto, and the small
// interfaces the SEV-SNP verification plane (attestation/snp) is built
// over: where it gets its VCEKs (CertSource) and how it judges a
// measurement (TrustPolicy, RevocationChecker, JudgeMeasurement).
//
// The package carries no verification logic, so every layer of the
// system — including the internal verification plane — can import it
// without cycles. Evidence has one format on every hop, the SEV-SNP
// report bundle (snp.Bundle), so there is no evidence type here.
package attestation

import (
	"context"
	"crypto/x509"
	"fmt"

	"revelio/internal/measure"
	"revelio/internal/sev"
)

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

// CertSource supplies the certificate that authenticates SEV-SNP
// evidence: the VCEK for a chip/TCB pair. It is the seam that decouples
// the verification plane from a concrete KDS client — an HTTP client
// against the (simulated) AMD KDS, a pre-fetched offline bundle, or a
// test double all satisfy it. The ASK and ARK above every VCEK are not
// asked of it: a verifier carries its product line's, so whoever answers
// for the source never picks the root it is judged by.
type CertSource interface {
	// VCEK returns the VCEK certificate for a chip at a TCB version.
	VCEK(ctx context.Context, chipID sev.ChipID, tcb uint64) (*x509.Certificate, error)
}
