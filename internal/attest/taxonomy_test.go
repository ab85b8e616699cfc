package attest

import (
	"context"
	"errors"
	"testing"
	"time"

	"revelio/attestation"
	"revelio/internal/amdsp"
	"revelio/internal/kds"
	"revelio/internal/registry"
	"revelio/internal/sev"
)

// TestErrorTaxonomy pins the attest-layer half of the SDK's error
// contract: each failure mode maps to its sentinel — the identical
// error value the public attestation package exports — and every
// policy leaf reaches ErrPolicyRejected.
func TestErrorTaxonomy(t *testing.T) {
	tests := []struct {
		name string
		// verify runs the failure scenario and returns its error.
		verify  func(t *testing.T) error
		want    error
		parents []error
		not     []error
	}{
		{
			name: "untrusted measurement",
			verify: func(t *testing.T) error {
				r := newRig(t)
				rep := r.report(t, sev.ReportData{10})
				var wrong [48]byte
				wrong[0] = 0xBB
				v := NewVerifier(r.client, NewStaticGolden(wrong))
				_, err := v.VerifyReport(context.Background(), rep)
				return err
			},
			want:    attestation.ErrUntrustedMeasurement,
			parents: []error{attestation.ErrPolicyRejected},
			not:     []error{attestation.ErrRevoked, attestation.ErrEvidenceInvalid},
		},
		{
			name: "revocation",
			verify: func(t *testing.T) error {
				r := newRig(t)
				rep := r.report(t, sev.ReportData{11})
				reg := registry.New(1)
				reg.AddVoter("op")
				if err := reg.Propose(rep.Measurement, "golden"); err != nil {
					t.Fatal(err)
				}
				if err := reg.Vote("op", rep.Measurement); err != nil {
					t.Fatal(err)
				}
				if err := reg.Revoke(rep.Measurement); err != nil {
					t.Fatal(err)
				}
				v := NewVerifier(r.client, reg)
				_, err := v.VerifyReport(context.Background(), rep)
				return err
			},
			want:    attestation.ErrRevoked,
			parents: []error{attestation.ErrPolicyRejected},
			not:     []error{attestation.ErrUntrustedMeasurement},
		},
		{
			name: "TCB floor",
			verify: func(t *testing.T) error {
				r := newRig(t)
				rep := r.report(t, sev.ReportData{12})
				v := NewVerifier(r.client, NewStaticGolden(rep.Measurement), WithMinTCB(99))
				_, err := v.VerifyReport(context.Background(), rep)
				return err
			},
			want:    attestation.ErrTCBTooOld,
			parents: []error{attestation.ErrPolicyRejected},
		},
		{
			name: "chip allow-list",
			verify: func(t *testing.T) error {
				r := newRig(t)
				rep := r.report(t, sev.ReportData{13})
				v := NewVerifier(r.client, NewStaticGolden(rep.Measurement),
					WithChipAllowList(sev.ChipID{0xEE}))
				_, err := v.VerifyReport(context.Background(), rep)
				return err
			},
			want:    attestation.ErrChipNotAllowed,
			parents: []error{attestation.ErrPolicyRejected},
		},
		{
			name: "KDS outage",
			verify: func(t *testing.T) error {
				r := newRig(t)
				rep := r.report(t, sev.ReportData{14})
				// A certificate source nothing listens on.
				dead := kds.NewClient("http://127.0.0.1:1", nil)
				v := NewVerifier(dead, NewStaticGolden(rep.Measurement))
				_, err := v.VerifyReport(context.Background(), rep)
				return err
			},
			want: attestation.ErrKDSUnavailable,
			not:  []error{attestation.ErrPolicyRejected, context.Canceled},
		},
		{
			name: "chip unknown to the KDS",
			verify: func(t *testing.T) error {
				r := newRig(t)
				// A chip another manufacturer minted: the KDS answers 404.
				other, err := amdsp.NewManufacturer([]byte("attest-test-other"))
				if err != nil {
					t.Fatal(err)
				}
				_, rep := mintChip(t, other, "chip")
				_, err = NewVerifier(r.client, NewStaticGolden(rep.Measurement)).VerifyReport(context.Background(), rep)
				return err
			},
			want:    kds.ErrNotFound,
			parents: []error{attestation.ErrChainInvalid, attestation.ErrEvidenceInvalid},
			not:     []error{attestation.ErrKDSUnavailable, attestation.ErrPolicyRejected},
		},
		{
			name: "unparseable VCEK body",
			verify: func(t *testing.T) error {
				r := newRig(t)
				rep := r.report(t, sev.ReportData{17})
				url := vcekBodyServer(t, r.mfr, func() []byte { return []byte("not a certificate") })
				_, err := NewVerifier(kds.NewClient(url, nil), NewStaticGolden(rep.Measurement)).VerifyReport(context.Background(), rep)
				return err
			},
			want:    kds.ErrBadResponse,
			parents: []error{attestation.ErrKDSUnavailable},
			not:     []error{attestation.ErrEvidenceInvalid, attestation.ErrPolicyRejected},
		},
		{
			name: "expired evidence",
			verify: func(t *testing.T) error {
				r := newRig(t)
				rep := r.report(t, sev.ReportData{15})
				future := time.Now().Add(40 * 365 * 24 * time.Hour)
				v := NewVerifier(r.client, NewStaticGolden(rep.Measurement),
					WithClock(func() time.Time { return future }))
				_, err := v.VerifyReport(context.Background(), rep)
				return err
			},
			want: attestation.ErrEvidenceExpired,
			not:  []error{attestation.ErrChainInvalid, attestation.ErrPolicyRejected},
		},
		{
			name: "forged signature",
			verify: func(t *testing.T) error {
				r := newRig(t)
				rep := r.report(t, sev.ReportData{16})
				rep.Measurement[0] ^= 1
				v := NewVerifier(r.client, NewStaticGolden(rep.Measurement))
				_, err := v.VerifyReport(context.Background(), rep)
				return err
			},
			want:    sev.ErrBadSignature,
			parents: []error{attestation.ErrEvidenceInvalid},
			not:     []error{attestation.ErrPolicyRejected},
		},
		{
			name: "unparseable report",
			verify: func(t *testing.T) error {
				r := newRig(t)
				_, err := NewVerifier(r.client, NewStaticGolden()).VerifyRaw(context.Background(), []byte("junk"))
				return err
			},
			want:    sev.ErrBadReport,
			parents: []error{attestation.ErrEvidenceInvalid},
		},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := tc.verify(t)
			if err == nil {
				t.Fatal("scenario unexpectedly verified")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("errors.Is(err, want) = false\n  err:  %v\n  want: %v", err, tc.want)
			}
			for _, parent := range tc.parents {
				if !errors.Is(err, parent) {
					t.Errorf("err does not reach parent %v: %v", parent, err)
				}
			}
			for _, wrong := range tc.not {
				if errors.Is(err, wrong) {
					t.Errorf("err wrongly matches %v: %v", wrong, err)
				}
			}
		})
	}
}
