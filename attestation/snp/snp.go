// Package snp is the SEV-SNP attestation provider of the public SDK: it
// exposes Revelio's hardware-backed verification plane — attestation
// reports signed by the chip's VCEK, authenticated against the AMD KDS
// — through one relying-party object, the Verifier, which verifies
// report bundles and owns their REPORT_DATA binding; a Provider pairs it
// with a guest's report signer to issue them. It re-exports the pieces a
// relying party composes (verifier, KDS client, trust policies) so no
// caller needs to reach into revelio/internal.
package snp

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"revelio/attestation"
	"revelio/internal/attest"
	"revelio/internal/kds"
	"revelio/internal/measure"
	"revelio/internal/sev"
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

// NewVerifier creates a verifier fetching VCEKs from source, judging
// each against the product line's ASK and ARK it carries, and judging
// measurements with policy.
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

// ParseMeasurement parses a hex measurement.
func ParseMeasurement(s string) (Measurement, error) { return measure.ParseMeasurement(s) }

// NewKDSClient creates a client for a KDS at base (nil httpClient
// selects http.DefaultClient). The returned client satisfies
// attestation.CertSource and is what NewVerifier runs on.
func NewKDSClient(base string, httpClient *http.Client, opts ...KDSClientOption) *KDSClient {
	return kds.NewClient(base, httpClient, opts...)
}

// Provider is both halves of SEV-SNP attestation: the embedded verifier
// is the relying party (its policy, caches and revision, promoted), and
// the signer produces report bundles from inside the TEE. Its evidence is
// the Bundle every hop ships — the well-known endpoint, the CSR fetch,
// the join key exchange and the RA-TLS certificate extension alike.
type Provider struct {
	*Verifier
	signer ReportSigner
}

// NewNodeProvider creates a provider: signer issues evidence from inside
// the TEE, v verifies it as a relying party.
func NewNodeProvider(signer ReportSigner, v *Verifier) *Provider {
	return &Provider{Verifier: v, signer: signer}
}

// Issue returns a bundle around a fresh report binding payload.
func (p *Provider) Issue(_ context.Context, payload []byte) (*Bundle, error) {
	report, err := p.signer.Report(sev.HashOf(payload))
	if err != nil {
		return nil, fmt.Errorf("snp: obtain report: %w", err)
	}
	return attest.NewBundle(report, payload)
}
