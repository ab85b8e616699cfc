package attestation

import (
	"errors"
	"fmt"
)

// The SDK's typed error taxonomy. Every failure mode in the
// verification plane — from the KDS client at the bottom to the
// revelio facade at the top — wraps exactly one of these sentinels, so
// callers branch with errors.Is/As instead of string matching, from any
// layer they happen to hold an error from.
//
// The taxonomy is a small tree:
//
//	ErrPolicyRejected            — authentic evidence, rejected by policy
//	  ├─ ErrUntrustedMeasurement — measurement is not a golden value
//	  ├─ ErrRevoked              — measurement was explicitly revoked
//	  ├─ ErrChipNotAllowed       — platform outside the allow-list
//	  └─ ErrTCBTooOld            — platform firmware below the floor
//	ErrEvidenceInvalid           — evidence that does not authenticate
//	  ├─ ErrChainInvalid         — certificate chain does not verify
//	  ├─ ErrIdentityMismatch     — evidence/platform identity disagree
//	  └─ ErrBindingMismatch      — evidence does not bind its payload
//	ErrEvidenceExpired           — evidence (or its chain) out of validity
//	ErrKDSUnavailable            — certificate source unreachable
//
// Interior nodes are reachable from their leaves: a revocation failure
// satisfies both errors.Is(err, ErrRevoked) and
// errors.Is(err, ErrPolicyRejected). A caller-initiated cancellation is
// deliberately *not* mapped into the taxonomy — context.Canceled and
// context.DeadlineExceeded surface wrapped but unclassified, because an
// aborted verification says nothing about the evidence.
var (
	// ErrPolicyRejected reports cryptographically valid evidence that the
	// verifier's policy refuses. It is the parent of every policy leaf.
	ErrPolicyRejected = errors.New("attestation: evidence rejected by policy")

	// ErrUntrustedMeasurement reports a measurement no trust policy
	// accepts (it was never a golden value).
	ErrUntrustedMeasurement = fmt.Errorf("%w: measurement not trusted", ErrPolicyRejected)

	// ErrRevoked reports a measurement that was a golden value and has
	// been explicitly revoked — the rollback defence distinguishing
	// "never trusted" from "no longer trusted".
	ErrRevoked = fmt.Errorf("%w: measurement revoked", ErrPolicyRejected)

	// ErrChipNotAllowed reports evidence from a platform outside the
	// verifier's allow-list (the SP node's impersonation defence).
	ErrChipNotAllowed = fmt.Errorf("%w: chip not in allow-list", ErrPolicyRejected)

	// ErrTCBTooOld reports a platform running firmware below the
	// verifier's floor — the firmware-level rollback defence.
	ErrTCBTooOld = fmt.Errorf("%w: platform TCB below required minimum", ErrPolicyRejected)

	// ErrEvidenceInvalid reports evidence that fails authentication:
	// malformed documents, broken signatures, certificate chains that do
	// not verify. It is the parent of the authenticity leaves.
	ErrEvidenceInvalid = errors.New("attestation: evidence invalid")

	// ErrChainInvalid reports an endorsement certificate that does not
	// chain to the provider's root of trust.
	ErrChainInvalid = fmt.Errorf("%w: certificate chain invalid", ErrEvidenceInvalid)

	// ErrIdentityMismatch reports evidence whose embedded platform
	// identity disagrees with its endorsement.
	ErrIdentityMismatch = fmt.Errorf("%w: platform identity mismatch", ErrEvidenceInvalid)

	// ErrBindingMismatch reports evidence that does not bind the payload
	// it claims to vouch for (REPORT_DATA/quote binding failure).
	ErrBindingMismatch = fmt.Errorf("%w: evidence does not bind payload", ErrEvidenceInvalid)

	// ErrEvidenceExpired reports evidence whose validity window — its own
	// or any certificate in its proving chain — has passed.
	ErrEvidenceExpired = errors.New("attestation: evidence expired")

	// ErrKDSUnavailable reports a certificate source (the AMD KDS, or
	// whatever CertSource the verifier runs on) that could not be
	// reached: transport failure or a non-2xx server response. Caller
	// cancellations are not wrapped in it.
	ErrKDSUnavailable = errors.New("attestation: certificate source unavailable")
)
