package attestation

import (
	"errors"
	"testing"

	"revelio/internal/measure"
)

// TestTaxonomyHierarchy pins the errors.Is tree: every leaf must reach
// its parent, and siblings must stay distinct.
func TestTaxonomyHierarchy(t *testing.T) {
	policyLeaves := []error{ErrUntrustedMeasurement, ErrRevoked, ErrChipNotAllowed, ErrTCBTooOld}
	for _, leaf := range policyLeaves {
		if !errors.Is(leaf, ErrPolicyRejected) {
			t.Errorf("%v does not reach ErrPolicyRejected", leaf)
		}
		if errors.Is(leaf, ErrEvidenceInvalid) {
			t.Errorf("%v wrongly reaches ErrEvidenceInvalid", leaf)
		}
	}
	invalidLeaves := []error{ErrChainInvalid, ErrIdentityMismatch, ErrBindingMismatch}
	for _, leaf := range invalidLeaves {
		if !errors.Is(leaf, ErrEvidenceInvalid) {
			t.Errorf("%v does not reach ErrEvidenceInvalid", leaf)
		}
		if errors.Is(leaf, ErrPolicyRejected) {
			t.Errorf("%v wrongly reaches ErrPolicyRejected", leaf)
		}
	}
	if errors.Is(ErrRevoked, ErrUntrustedMeasurement) {
		t.Error("ErrRevoked must stay distinct from ErrUntrustedMeasurement")
	}
	for _, standalone := range []error{ErrEvidenceExpired, ErrKDSUnavailable} {
		if errors.Is(standalone, ErrPolicyRejected) || errors.Is(standalone, ErrEvidenceInvalid) {
			t.Errorf("%v must not hang off an interior node", standalone)
		}
	}
}

type staticPolicy map[measure.Measurement]bool // true = trusted, false = revoked

func (p staticPolicy) IsTrusted(m measure.Measurement) bool { return p[m] }
func (p staticPolicy) IsRevoked(m measure.Measurement) bool {
	trusted, known := p[m]
	return known && !trusted
}

func TestJudgeMeasurement(t *testing.T) {
	var trusted, revoked, unknown measure.Measurement
	trusted[0], revoked[0], unknown[0] = 1, 2, 3
	policy := staticPolicy{trusted: true, revoked: false}

	if err := JudgeMeasurement(policy, trusted); err != nil {
		t.Fatalf("trusted measurement judged: %v", err)
	}
	if err := JudgeMeasurement(policy, revoked); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked measurement: got %v, want ErrRevoked", err)
	}
	if err := JudgeMeasurement(policy, unknown); !errors.Is(err, ErrUntrustedMeasurement) {
		t.Fatalf("unknown measurement: got %v, want ErrUntrustedMeasurement", err)
	}
	if err := JudgeMeasurement(nil, unknown); err != nil {
		t.Fatalf("nil policy must trust everything, got %v", err)
	}
}
