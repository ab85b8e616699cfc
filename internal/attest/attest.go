// Package attest is Revelio's verifier library: everything a relying
// party (the SP node, the web extension, an auditor) does with an
// attestation report (§5.3, §5.3.2).
//
// Verification is the five-step pipeline the paper describes: fetch the
// VCEK from the KDS, validate its chain up to the product line's ASK and
// ARK, which the verifier carries (internal/sev) and never fetches, check
// the VCEK's embedded chip identity against the report, verify the
// report's signature, and finally judge the measurement against a trust
// policy (hard-coded golden values or a trusted registry). The chain is
// validated by one walk over the fixed VCEK → ASK → ARK shape (walkChain),
// which applies crypto/x509's checks in crypto/x509's order and verifies
// the VCEK's ECDSA P-384 signature on internal/p384, against the ASK's
// key, prepared with the once-per-process check of the ASK→ARK link. Bundles add
// the REPORT_DATA binding between a report and a payload (public key or
// CSR), which the verifier checks itself: the binding is sev.HashOf, or
// sev.HashOfWithNonce for a challenged bundle, and no caller supplies it.
package attest

import (
	"context"
	"crypto/ecdsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"revelio/attestation"
	"revelio/internal/cache"
	"revelio/internal/measure"
	"revelio/internal/p384"
	"revelio/internal/sev"
)

// The package's failure modes are the SDK's shared error taxonomy
// (revelio/attestation): the same sentinel an errors.Is caller matches
// here is what the public facade, ratls, certmgr and fleet surface, so
// a failure classified at this layer stays classified all the way up.
var (
	// ErrUntrustedMeasurement reports a valid report whose measurement no
	// trust policy accepts.
	ErrUntrustedMeasurement = attestation.ErrUntrustedMeasurement
	// ErrRevoked reports a measurement the trust policy explicitly
	// revoked (as against one it never trusted).
	ErrRevoked = attestation.ErrRevoked
	// ErrChipNotAllowed reports a report from a chip outside the
	// allow-list (the SP node's impersonation defence, §5.3.1).
	ErrChipNotAllowed = attestation.ErrChipNotAllowed
	// ErrChainInvalid reports a VCEK that does not chain to the ARK.
	ErrChainInvalid = attestation.ErrChainInvalid
	// ErrIdentityMismatch reports a VCEK certificate whose embedded chip
	// identity disagrees with the report.
	ErrIdentityMismatch = attestation.ErrIdentityMismatch
	// ErrReportDataMismatch reports a bundle whose payload hash is not
	// the report's REPORT_DATA.
	ErrReportDataMismatch = attestation.ErrBindingMismatch
	// ErrTCBTooOld reports a platform running SNP firmware below the
	// verifier's floor — the firmware-level rollback defence.
	ErrTCBTooOld = attestation.ErrTCBTooOld
	// ErrEvidenceExpired reports evidence whose proving chain is out of
	// its validity window at verification time.
	ErrEvidenceExpired = attestation.ErrEvidenceExpired
)

// TrustPolicy decides whether a measurement is a golden value.
// *registry.Registry implements it; StaticGolden is the hard-coded
// alternative (§5.3: "hard-coded values planted on the VMs at build
// time"). It is the SDK-wide attestation.TrustPolicy contract.
type TrustPolicy = attestation.TrustPolicy

// CertSource supplies the VCEK certificate that authenticates a report —
// the seam that used to be a hard *kds.Client dependency. *kds.Client
// satisfies it; so do offline bundles and test doubles.
type CertSource = attestation.CertSource

// StaticGolden is a fixed set of golden measurements.
type StaticGolden map[measure.Measurement]struct{}

var _ TrustPolicy = StaticGolden(nil)

// NewStaticGolden builds a policy from measurements.
func NewStaticGolden(ms ...measure.Measurement) StaticGolden {
	g := make(StaticGolden, len(ms))
	for _, m := range ms {
		g[m] = struct{}{}
	}
	return g
}

// IsTrusted implements TrustPolicy.
func (g StaticGolden) IsTrusted(m measure.Measurement) bool {
	_, ok := g[m]
	return ok
}

// Verifier validates attestation reports end to end.
//
// Positive verifications are memoized in two proof tiers — one keyed by
// report digest (skips the chain walk and the ECDSA signature check for
// already-proven reports) and one keyed by VCEK DER digest (skips the
// chain walk when a fresh report arrives under a known VCEK, the
// warm-session case, and carries the VCEK's prepared P-384 key, so that
// report's signature check finds the key's tables built). A VCEK never
// seen before — a new chip joining — costs one signature check, against
// the carried ASK's prepared key. Policy judgments (TCB floor, chip
// allow-list, measurement trust) are re-run on every hit, so a registry
// revocation fails a cached report immediately. Failures are never
// cached.
type Verifier struct {
	source  CertSource
	policy  TrustPolicy
	chips   map[sev.ChipID]struct{} // nil = any chip
	minTCB  uint64
	now     func() time.Time
	carried func() (*chain, error) // the ASK and ARK every VCEK is judged against: productChain

	reports   *cache.Cache[proofKey, proof] // report digest -> proof; nil = disabled
	chains    *cache.Cache[proofKey, proof] // VCEK DER digest -> proof; nil = disabled
	noCache   bool
	policyRev atomic.Uint64

	reportsVerified, linksVerified atomic.Uint64
	reportHits, chainHits          atomic.Uint64
	keysPrepared                   atomic.Uint64
}

// Stats is an exact count of the P-384 verifications and key preparations
// a Verifier has performed and of the ones its proof tiers answered
// instead. Tests read it before and after an operation to pin that
// operation's verification budget.
type Stats struct {
	// ReportsVerified counts report signatures checked and found good.
	ReportsVerified uint64 `json:"reports_verified"`
	// ChainLinksVerified counts certificate signatures checked by
	// successful chain walks: one, the VCEK→ASK link, per walk. The
	// carried ASK→ARK link is checked once per process and counts in no
	// Verifier's Stats.
	ChainLinksVerified uint64 `json:"chain_links_verified"`
	// ReportHits counts verifications answered from the report-proof
	// tier (no cryptography; policy re-judged).
	ReportHits uint64 `json:"report_hits"`
	// ChainHits counts chain walks skipped because the VCEK was proven.
	ChainHits uint64 `json:"chain_hits"`
	// KeysPrepared counts VCEK keys validated and given their
	// verification tables (p384.NewPublicKey, about two signature checks'
	// worth of work): one per chain walk that got as far as the key, none
	// on a chain hit, which finds the key in the proof. The carried ASK's
	// key, prepared once per process, is not counted.
	KeysPrepared uint64 `json:"keys_prepared"`
}

// Sub returns the operations counted since an earlier snapshot.
func (s Stats) Sub(earlier Stats) Stats {
	return Stats{
		ReportsVerified:    s.ReportsVerified - earlier.ReportsVerified,
		ChainLinksVerified: s.ChainLinksVerified - earlier.ChainLinksVerified,
		ReportHits:         s.ReportHits - earlier.ReportHits,
		ChainHits:          s.ChainHits - earlier.ChainHits,
		KeysPrepared:       s.KeysPrepared - earlier.KeysPrepared,
	}
}

// Stats returns the current verification counts.
func (v *Verifier) Stats() Stats {
	return Stats{
		ReportsVerified:    v.reportsVerified.Load(),
		ChainLinksVerified: v.linksVerified.Load(),
		ReportHits:         v.reportHits.Load(),
		ChainHits:          v.chainHits.Load(),
		KeysPrepared:       v.keysPrepared.Load(),
	}
}

// Option configures a Verifier.
type Option func(*Verifier)

// WithChipAllowList restricts acceptable chips.
func WithChipAllowList(ids ...sev.ChipID) Option {
	return func(v *Verifier) {
		v.chips = make(map[sev.ChipID]struct{}, len(ids))
		for _, id := range ids {
			v.chips[id] = struct{}{}
		}
	}
}

// WithClock injects a test clock for certificate validity checks.
func WithClock(now func() time.Time) Option { return func(v *Verifier) { v.now = now } }

// WithMinTCB sets a floor on the platform's SNP firmware version: reports
// from chips whose TCB is older are rejected even if everything else
// checks out. A verifier raises the floor after AMD ships a firmware fix,
// closing the platform-level rollback window that golden-measurement
// revocation alone cannot (the VM image can be current while the
// firmware underneath it is not).
func WithMinTCB(tcb uint64) Option { return func(v *Verifier) { v.minTCB = tcb } }

// WithoutReportCache disables proof caching entirely: every VerifyReport
// re-runs the full cryptographic pipeline. This is the pre-fast-path
// behaviour, kept for benchmarking the cold path.
func WithoutReportCache() Option { return func(v *Verifier) { v.noCache = true } }

// NewVerifier creates a verifier fetching VCEKs from source (typically a
// *kds.Client, but any CertSource works), judging each against the
// product line's ASK and ARK, and judging measurements with policy. Proof
// caching is on by default; see WithoutReportCache.
func NewVerifier(source CertSource, policy TrustPolicy, opts ...Option) *Verifier {
	v := &Verifier{source: source, policy: policy, now: time.Now, carried: productChain}
	for _, o := range opts {
		o(v)
	}
	if !v.noCache {
		v.reports = cache.New[proofKey, proof](reportCacheSize)
		v.chains = cache.New[proofKey, proof](reportCacheSize)
	}
	return v
}

// InvalidatePolicy drops every cached proof by bumping the verifier's
// policy revision; the next verification of any evidence re-runs full
// cryptography. Call it when something the cached proofs depend on
// changes out from under the verifier (e.g. the injected clock moves past
// certificate validity). Ordinary policy mutations — registry votes and
// revocations, allow-list membership — do NOT need invalidation: policy
// is re-judged on every cache hit.
func (v *Verifier) InvalidatePolicy() { v.policyRev.Add(1) }

// PolicyRevision returns the current policy revision: the fence of the
// verifier's proof caches, which the gateway also reads as its policy
// epoch (flushing warm connections when it moves).
func (v *Verifier) PolicyRevision() uint64 { return v.policyRev.Load() }

// CheckPolicy re-judges an already-authenticated report against the
// verifier's current policy: TCB floor, chip allow-list, and measurement
// trust. It performs no cryptography, so cached fast paths run it on
// every hit — policy changes take effect immediately even for proven
// evidence.
func (v *Verifier) CheckPolicy(report *sev.Report) error {
	if report.TCBVersion < v.minTCB {
		return fmt.Errorf("%w: have %d, need %d", ErrTCBTooOld, report.TCBVersion, v.minTCB)
	}
	if v.chips != nil {
		if _, ok := v.chips[report.ChipID]; !ok {
			return ErrChipNotAllowed
		}
	}
	// JudgeMeasurement distinguishes revocation from plain distrust when
	// the policy can (the trusted registry's RevocationChecker).
	return attestation.JudgeMeasurement(v.policy, report.Measurement)
}

// Result is a successfully verified report plus the evidence used.
type Result struct {
	Report *sev.Report
	VCEK   *x509.Certificate
}

// VerifyReport runs the full verification pipeline on a parsed report.
//
// Fast path: if this exact report (every signed byte plus the signature)
// was already proven at the current policy revision, the chain walk and
// ECDSA checks are skipped and only the policy judgment re-runs. A
// tampered report hashes to a different key, misses the cache, and fails
// in the full pipeline — the caches are provably fail-closed.
func (v *Verifier) VerifyReport(ctx context.Context, report *sev.Report) (*Result, error) {
	rev := v.policyRev.Load()
	now := v.now()
	var rkey proofKey
	if v.reports != nil {
		rkey = reportProofKey(report)
		if p, ok := v.reports.Get(rkey, rev, now); ok {
			v.reportHits.Add(1)
			if err := v.CheckPolicy(report); err != nil {
				return nil, err
			}
			return &Result{Report: report, VCEK: p.vcek}, nil
		}
	}

	vcekCert, err := v.source.VCEK(ctx, report.ChipID, report.TCBVersion)
	if err != nil {
		return nil, fmt.Errorf("attest: fetch vcek: %w", err)
	}

	// Chain walk, skipped when this exact VCEK DER was already proven at
	// this policy revision (a fresh nonce-bound report from a known node
	// pays only the signature check, against the key the proof carries —
	// the warm-session case). Proofs hold only where the windows of the
	// whole proving chain overlap, so a cached proof never answers at a
	// clock where any validity check the walk performed would fail.
	var (
		ckey        proofKey
		chainProof  proof
		chainProven bool
	)
	if v.chains != nil {
		ckey = sha256.Sum256(vcekCert.Raw)
		chainProof, chainProven = v.chains.Get(ckey, rev, now)
	}
	key, notBefore, notAfter := chainProof.key, chainProof.notBefore, chainProof.notAfter
	if chainProven {
		v.chainHits.Add(1)
	} else {
		c, err := v.carried()
		if err != nil {
			return nil, err
		}
		if err := walkChain(vcekCert, c, now); err != nil {
			return nil, err
		}
		v.linksVerified.Add(1)
		notBefore, notAfter = overlap(vcekCert, c.ask, c.ark)
	}

	chipID, tcb, err := sev.VCEKIdentity(vcekCert)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrIdentityMismatch, err)
	}
	if chipID != report.ChipID || tcb != report.TCBVersion {
		return nil, ErrIdentityMismatch
	}
	if !chainProven {
		// The key is prepared once per proven chain and kept in the proof,
		// under the proof's fence: every report under this VCEK until the
		// policy revision moves, the chain expires or the entry is evicted
		// verifies against these tables. A VCEK that is not a point on
		// P-384 proves nothing and stores nothing.
		pub, ok := vcekCert.PublicKey.(*ecdsa.PublicKey)
		if !ok {
			return nil, fmt.Errorf("%w: VCEK key type %T", ErrChainInvalid, vcekCert.PublicKey)
		}
		if key, err = p384.NewPublicKey(pub); err != nil {
			return nil, fmt.Errorf("attest: %w: %w: %v", attestation.ErrEvidenceInvalid, sev.ErrBadSignature, err)
		}
		v.keysPrepared.Add(1)
		if v.chains != nil {
			v.chains.Put(ckey, proof{vcek: vcekCert, key: key, notBefore: notBefore, notAfter: notAfter}, rev, notBefore, notAfter)
		}
	}
	if err := report.Verify(key); err != nil {
		return nil, fmt.Errorf("attest: %w: %w", attestation.ErrEvidenceInvalid, err)
	}
	v.reportsVerified.Add(1)

	if err := v.CheckPolicy(report); err != nil {
		return nil, err
	}
	if v.reports != nil {
		v.reports.Put(rkey, proof{vcek: vcekCert}, rev, notBefore, notAfter)
	}
	return &Result{Report: report, VCEK: vcekCert}, nil
}

// VerifyRaw parses and verifies a serialized report.
func (v *Verifier) VerifyRaw(ctx context.Context, raw []byte) (*Result, error) {
	var report sev.Report
	if err := report.UnmarshalBinary(raw); err != nil {
		return nil, fmt.Errorf("attest: %w: %w", attestation.ErrEvidenceInvalid, err)
	}
	return v.VerifyReport(ctx, &report)
}

// Bundle is the report-plus-payload unit Revelio's protocols ship over
// HTTP: the payload (a public key, a CSR, an encrypted TLS key) is bound
// to the report via REPORT_DATA = SHA-512(payload).
type Bundle struct {
	ReportRaw []byte `json:"report"`
	Payload   []byte `json:"payload"`
}

// NewBundle serializes a report around its payload.
func NewBundle(report *sev.Report, payload []byte) (*Bundle, error) {
	raw, err := report.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return &Bundle{ReportRaw: raw, Payload: payload}, nil
}

// Encode renders the bundle as JSON for transport.
func (b *Bundle) Encode() ([]byte, error) {
	out, err := json.Marshal(b)
	if err != nil {
		return nil, fmt.Errorf("attest: encode bundle: %w", err)
	}
	return out, nil
}

// DecodeBundle parses a JSON bundle. Bytes that are not one are invalid
// evidence (attestation.ErrEvidenceInvalid), like a bundle that does not
// verify.
func DecodeBundle(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("attest: %w: decode bundle: %w", attestation.ErrEvidenceInvalid, err)
	}
	return &b, nil
}

// VerifyEvidence verifies the bundle's report and its binding to the
// payload, REPORT_DATA = sev.HashOf(payload), returning the verification
// result. It is what every hop's relying party runs: the SP node and the
// leader on a CSR or key bundle, the gateway on an RA-TLS certificate.
func (v *Verifier) VerifyEvidence(ctx context.Context, b *Bundle) (*Result, error) {
	return v.verifyBound(ctx, b, sev.HashOf(b.Payload))
}

// VerifyNonceBound is VerifyEvidence for a bundle the relying party
// challenged with nonce: REPORT_DATA must be
// sev.HashOfWithNonce(payload, nonce), so a bundle issued before the
// challenge — or for no challenge — fails the binding.
func (v *Verifier) VerifyNonceBound(ctx context.Context, b *Bundle, nonce []byte) (*Result, error) {
	return v.verifyBound(ctx, b, sev.HashOfWithNonce(b.Payload, nonce))
}

func (v *Verifier) verifyBound(ctx context.Context, b *Bundle, want sev.ReportData) (*Result, error) {
	var report sev.Report
	if err := report.UnmarshalBinary(b.ReportRaw); err != nil {
		return nil, fmt.Errorf("attest: %w: %w", attestation.ErrEvidenceInvalid, err)
	}
	if report.ReportData != want {
		return nil, ErrReportDataMismatch
	}
	return v.VerifyReport(ctx, &report)
}
