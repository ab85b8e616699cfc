// Package webclient is the end-user side of the public SDK: the
// simulated browser and the Revelio web extension (paper §5.3.2) under
// public names. A Browser resolves domains and speaks HTTPS against a
// deployment's CA roots; an Extension layers remote attestation over
// every navigation — fresh-session attestation, per-request connection
// monitoring, and the two failure modes users are protected from
// (measurement mismatch, connection hijack).
//
// A Browser keeps its TLS connections alive for the browser session, as
// a real browser does, so a session pays one handshake and one
// attestation and every later navigation rides the attested connection.
// The session's connections end when Resolve points the domain at a
// different address, on Extension.ResetSession (a new browser context:
// it re-attests over a fresh handshake), on Browser.Close, or when the
// Browser is garbage collected — call Close to release them at once.
// The attested key is checked twice: in the handshake of every new
// connection for the domain, so a hijacker's server is refused before
// the request is written, and against the connection that served each
// response.
package webclient

import (
	"crypto/x509"
	"time"

	"revelio/attestation/snp"
	"revelio/internal/browser"
	"revelio/internal/webext"
)

// Browser is a minimal browser: local DNS overrides, a CA root pool,
// keep-alive connections for the session (released by Close), and
// per-connection key introspection for the extension.
type Browser = browser.Browser

// Response is one fetched page.
type Response = browser.Response

// Extension is the Revelio web extension attached to a Browser.
type Extension = webext.Extension

// Metrics decomposes one navigation (attestation time, connection
// validation).
type Metrics = webext.Metrics

// The extension's user-facing failure modes. Where a failure has a
// class in the revelio/attestation taxonomy, the sentinel wraps it, so
// errors.Is works against both vocabularies: ErrMeasurementMismatch is
// an attestation.ErrUntrustedMeasurement (and hence ErrPolicyRejected),
// ErrConnectionHijacked an attestation.ErrBindingMismatch, and an
// ErrAttestationFailed carries the verifier's taxonomy error wrapped
// (ErrRevoked, ErrKDSUnavailable, ErrEvidenceExpired, ...).
var (
	// ErrSiteNotRegistered reports navigation to an unregistered site.
	ErrSiteNotRegistered = webext.ErrSiteNotRegistered
	// ErrAttestationFailed reports a site whose evidence failed
	// verification.
	ErrAttestationFailed = webext.ErrAttestationFailed
	// ErrMeasurementMismatch reports a site running software other than
	// the golden value the user registered.
	ErrMeasurementMismatch = webext.ErrMeasurementMismatch
	// ErrConnectionHijacked reports a TLS connection that no longer
	// terminates in the attested VM (e.g. after a DNS redirect).
	ErrConnectionHijacked = webext.ErrConnectionHijacked
	// ErrNoAttestation reports a site without an attestation endpoint.
	ErrNoAttestation = webext.ErrNoAttestation
)

// NewBrowser creates a browser trusting roots, with rtt of simulated
// network latency per request.
func NewBrowser(roots *x509.CertPool, rtt time.Duration) *Browser {
	return browser.New(roots, rtt)
}

// NewExtension attaches a Revelio extension to a browser, verifying
// site evidence through the given SEV-SNP verifier (obtain one from
// Service.Verifier or snp.NewVerifier). The sites' well-known
// attestation endpoint serves the SEV-SNP report bundle, the one
// evidence format every hop speaks — the gateway's RA-TLS upstream
// certificates carry the same bundle.
func NewExtension(b *Browser, verifier *snp.Verifier) *Extension {
	return webext.New(b, verifier)
}
