// Package snp is the SEV-SNP attestation provider of the public SDK: it
// exposes Revelio's hardware-backed verification plane — attestation
// reports signed by the chip's VCEK, authenticated against the AMD KDS
// — as a Provider that issues and verifies report bundles, and
// re-exports the pieces a relying party composes (verifier, KDS client,
// trust policies) so no caller needs to reach into revelio/internal.
package snp

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"revelio/attestation"
	"revelio/internal/attest"
	"revelio/internal/kds"
	"revelio/internal/measure"
	"revelio/internal/sev"
	"revelio/internal/vm"
)

// Re-exported verification-plane types: the concrete SEV-SNP machinery
// under a public name. Aliases, not wrappers — a *snp.Verifier IS the
// internal verifier, so every internal layer (certmgr, ratls, webext)
// accepts it directly.
type (
	// Verifier validates SEV-SNP attestation reports end to end, with
	// the full fast path (proof caches, policy revisions).
	Verifier = attest.Verifier
	// Option configures a Verifier.
	Option = attest.Option
	// Result is a successfully verified report.
	Result = attest.Result
	// Bundle is the report-plus-payload unit shipped over HTTP.
	Bundle = attest.Bundle
	// TrustPolicy judges measurements (see attestation.TrustPolicy).
	TrustPolicy = attest.TrustPolicy
	// StaticGolden is a fixed set of golden measurements.
	StaticGolden = attest.StaticGolden
	// KDSClient fetches and caches certificates from a (simulated) AMD
	// key distribution server. It implements attestation.CertSource.
	KDSClient = kds.Client
	// KDSClientOption tunes a KDSClient.
	KDSClientOption = kds.ClientOption
	// Measurement is a launch measurement.
	Measurement = measure.Measurement
	// ReportData is the 64-byte user data field a report binds.
	ReportData = sev.ReportData
	// Report is a parsed SEV-SNP attestation report.
	Report = sev.Report
	// ChipID identifies a secure processor.
	ChipID = sev.ChipID
	// ReportSigner produces reports over caller-chosen REPORT_DATA —
	// what a VM (or guest channel) exposes inside the TEE.
	ReportSigner interface {
		Report(data ReportData) (*Report, error)
	}
)

// NewVerifier creates a verifier fetching certificates from source and
// judging measurements with policy.
func NewVerifier(source attestation.CertSource, policy TrustPolicy, opts ...Option) *Verifier {
	return attest.NewVerifier(source, policy, opts...)
}

// NewStaticGolden builds a fixed golden-measurement policy.
func NewStaticGolden(ms ...Measurement) StaticGolden { return attest.NewStaticGolden(ms...) }

// WithChipAllowList restricts acceptable chips.
func WithChipAllowList(ids ...ChipID) Option { return attest.WithChipAllowList(ids...) }

// WithMinTCB sets the platform firmware floor.
func WithMinTCB(tcb uint64) Option { return attest.WithMinTCB(tcb) }

// WithClock injects a test clock for validity checks.
func WithClock(now func() time.Time) Option { return attest.WithClock(now) }

// DecodeBundle parses a JSON report bundle.
func DecodeBundle(data []byte) (*Bundle, error) { return attest.DecodeBundle(data) }

// HashOf is the REPORT_DATA binding hash (SHA-512).
func HashOf(blob []byte) ReportData { return vm.HashOf(blob) }

// ParseMeasurement parses a hex measurement.
func ParseMeasurement(s string) (Measurement, error) { return measure.ParseMeasurement(s) }

// NewKDSClient creates a client for a KDS at base (nil httpClient
// selects http.DefaultClient). The returned client satisfies
// attestation.CertSource and is what NewVerifier runs on.
func NewKDSClient(base string, httpClient *http.Client, opts ...KDSClientOption) *KDSClient {
	return kds.NewClient(base, httpClient, opts...)
}

// Provider is both halves of SEV-SNP attestation over one verifier: the
// verifier half wraps an *attest.Verifier (sharing its policy, caches
// and revision); the issuer half, when constructed with a ReportSigner,
// produces report bundles from inside the TEE. Its evidence is the
// Bundle every hop ships — the well-known endpoint, the CSR fetch, the
// join key exchange and the RA-TLS certificate extension alike.
type Provider struct {
	verifier *attest.Verifier
	signer   ReportSigner // nil for a verify-only provider
}

var _ attestation.Revisioned = (*Provider)(nil)

// NewProvider creates a verify-only SEV-SNP provider over v. Use
// NewNodeProvider where evidence must also be issued.
func NewProvider(v *attest.Verifier) *Provider {
	return &Provider{verifier: v}
}

// NewNodeProvider creates a full provider: signer issues evidence from
// inside the TEE, v verifies it as a relying party.
func NewNodeProvider(signer ReportSigner, v *attest.Verifier) *Provider {
	return &Provider{verifier: v, signer: signer}
}

// Verifier exposes the underlying SEV-SNP verifier.
func (p *Provider) Verifier() *attest.Verifier { return p.verifier }

// PolicyRevision implements attestation.Revisioned.
func (p *Provider) PolicyRevision() uint64 { return p.verifier.PolicyRevision() }

// InvalidatePolicy drops every cached proof below the provider.
func (p *Provider) InvalidatePolicy() { p.verifier.InvalidatePolicy() }

// Issue returns a bundle around a fresh report binding payload.
func (p *Provider) Issue(_ context.Context, payload []byte) (*Bundle, error) {
	if p.signer == nil {
		return nil, fmt.Errorf("%w: snp: provider has no report signer (relying-party side)", errors.ErrUnsupported)
	}
	report, err := p.signer.Report(vm.HashOf(payload))
	if err != nil {
		return nil, fmt.Errorf("snp: obtain report: %w", err)
	}
	return attest.NewBundle(report, payload)
}

// VerifyEvidence authenticates b's report, checks that it binds
// b.Payload, and judges it against the verifier's policy.
func (p *Provider) VerifyEvidence(ctx context.Context, b *Bundle) (*Result, error) {
	return p.verifier.VerifyBundle(ctx, b, vm.HashOf)
}
