// Package snp is the SEV-SNP attestation provider of the public SDK: it
// adapts Revelio's hardware-backed verification plane — attestation
// reports signed by the chip's VCEK, authenticated against the AMD KDS
// — to the provider-neutral attestation interfaces, and re-exports the
// pieces a relying party composes (verifier, KDS client, trust
// policies) so no caller needs to reach into revelio/internal.
package snp

import (
	"context"
	"encoding/json"
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

// ProviderName tags SEV-SNP evidence in the neutral envelope.
const ProviderName = "sev-snp"

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

// quoteDoc is the JSON document inside an SEV-SNP evidence envelope:
// just the report bundle.
type quoteDoc struct {
	Bundle *attest.Bundle `json:"bundle"`
}

// Provider adapts the SEV-SNP verification plane to the neutral
// attestation.Provider contract. The verifier half wraps an
// *attest.Verifier (sharing its policy, caches and revision); the
// issuer half, when constructed with a ReportSigner, produces evidence
// from inside the TEE.
type Provider struct {
	verifier *attest.Verifier
	signer   ReportSigner // nil for a verify-only provider
}

var (
	_ attestation.Verifier   = (*Provider)(nil)
	_ attestation.Revisioned = (*Provider)(nil)
)

// NewProvider creates a verify-only SEV-SNP provider over v. Use
// WithSigner (or NewNodeProvider) where evidence must also be issued.
func NewProvider(v *attest.Verifier) *Provider {
	return &Provider{verifier: v}
}

// NewNodeProvider creates a full provider: signer issues evidence from
// inside the TEE, v verifies it as a relying party.
func NewNodeProvider(signer ReportSigner, v *attest.Verifier) *Provider {
	return &Provider{verifier: v, signer: signer}
}

// Name implements attestation.Provider.
func (p *Provider) Name() string { return ProviderName }

// Verifier exposes the underlying SEV-SNP verifier.
func (p *Provider) Verifier() *attest.Verifier { return p.verifier }

// PolicyRevision implements attestation.Revisioned.
func (p *Provider) PolicyRevision() uint64 { return p.verifier.PolicyRevision() }

// InvalidatePolicy drops every cached proof below the provider.
func (p *Provider) InvalidatePolicy() { p.verifier.InvalidatePolicy() }

// Issue implements attestation.Issuer: a fresh report binding payload,
// wrapped in the neutral envelope.
func (p *Provider) Issue(_ context.Context, payload []byte) (*attestation.Evidence, error) {
	if p.signer == nil {
		return nil, fmt.Errorf("%w: snp: provider has no report signer (relying-party side)", errors.ErrUnsupported)
	}
	report, err := p.signer.Report(vm.HashOf(payload))
	if err != nil {
		return nil, fmt.Errorf("snp: obtain report: %w", err)
	}
	bundle, err := attest.NewBundle(report, payload)
	if err != nil {
		return nil, err
	}
	return EvidenceFromBundle(bundle)
}

// VerifyEvidence implements attestation.Verifier.
func (p *Provider) VerifyEvidence(ctx context.Context, ev *attestation.Evidence) (*attestation.Result, error) {
	if ev.Provider != ProviderName {
		return nil, fmt.Errorf("%w: %q evidence given to the %s provider",
			attestation.ErrUnknownProvider, ev.Provider, ProviderName)
	}
	var doc quoteDoc
	if err := json.Unmarshal(ev.Document, &doc); err != nil || doc.Bundle == nil {
		return nil, fmt.Errorf("%w: snp evidence document: %v", attestation.ErrEvidenceInvalid, err)
	}
	if ev.Payload != nil && string(ev.Payload) != string(doc.Bundle.Payload) {
		return nil, fmt.Errorf("%w: envelope payload disagrees with bundle", attestation.ErrBindingMismatch)
	}
	res, err := p.verifier.VerifyBundle(ctx, doc.Bundle, vm.HashOf)
	if err != nil {
		return nil, err
	}
	return &attestation.Result{
		Provider:    ProviderName,
		Measurement: res.Report.Measurement,
		TCB:         res.Report.TCBVersion,
		Payload:     doc.Bundle.Payload,
	}, nil
}

// EvidenceFromBundle wraps an existing report bundle — e.g. one fetched
// from a node's well-known attestation endpoint — in the neutral
// evidence envelope, so legacy bundle producers feed provider-neutral
// consumers (the neutral ratls path, Fleet.VerifyFleet) unchanged.
func EvidenceFromBundle(b *attest.Bundle) (*attestation.Evidence, error) {
	doc, err := json.Marshal(quoteDoc{Bundle: b})
	if err != nil {
		return nil, fmt.Errorf("snp: encode evidence document: %w", err)
	}
	return &attestation.Evidence{Provider: ProviderName, Payload: b.Payload, Document: doc}, nil
}

// EvidenceFromBundleJSON wraps a JSON-encoded bundle (the well-known
// endpoint's wire format) in the neutral envelope.
func EvidenceFromBundleJSON(bundleJSON []byte) (*attestation.Evidence, error) {
	b, err := attest.DecodeBundle(bundleJSON)
	if err != nil {
		return nil, err
	}
	return EvidenceFromBundle(b)
}
