// Package webext implements Revelio's browser extension (§5.3.2): the
// component that makes remote attestation seamless for end-users.
//
// Sites are registered with a golden measurement (manually, or learned
// opportunistically via Discover). The first access in a browser session
// is intercepted: the extension fetches the attestation bundle from the
// well-known URL, validates the VCEK chain via the AMD KDS, checks the
// report signature and measurement, and finally binds the session by
// comparing the TLS connection's public key against the key attested in
// REPORT_DATA. Every subsequent request is monitored: if the connection
// is reset onto a different certificate — the malicious-DNS redirect
// attack — the extension flags it before any data flows.
//
// The attestation binds a connection, and the browser keeps that
// connection alive for the session (see package browser), so the later
// requests of a session ride the attested connection itself and cost no
// handshake. The binding is enforced at two points. The attested key is
// handed to the browser as a pin, so any new connection for the domain —
// after a DNS change, a connection the peer killed, an idle timeout — is
// refused during its handshake unless it presents the attested key, and
// the request is never written to a hijacker. And after every response
// the key of the connection that served it is compared with the pin
// again. A session, and the connection with it, ends with ResetSession
// (a new browser context re-attests over a fresh handshake), with the
// browser's Close, or when browser and extension become garbage.
package webext

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"revelio/attestation"
	"revelio/internal/attest"
	"revelio/internal/browser"
	"revelio/internal/measure"
)

// The extension's user-facing failure modes. They live inside the SDK's
// attestation taxonomy wherever a taxonomy class applies, so a caller
// holding any webext error can branch with errors.Is against the
// attestation sentinels: a measurement mismatch is a policy rejection
// (attestation.ErrUntrustedMeasurement), a hijacked connection is a
// binding failure (attestation.ErrBindingMismatch), and an
// ErrAttestationFailed wraps whatever taxonomy error the verifier
// produced (ErrRevoked, ErrKDSUnavailable, ErrEvidenceExpired, ...).
var (
	// ErrSiteNotRegistered reports navigation to a domain the extension
	// does not manage (the request proceeds unprotected; callers decide).
	ErrSiteNotRegistered = errors.New("webext: site not registered")
	// ErrAttestationFailed reports a report that failed validation; the
	// verifier's taxonomy error rides along, wrapped.
	ErrAttestationFailed = errors.New("webext: attestation failed")
	// ErrMeasurementMismatch reports a valid report with an unexpected
	// measurement — the client-side analogue of a policy rejection.
	ErrMeasurementMismatch = fmt.Errorf(
		"webext: measurement does not match golden value: %w", attestation.ErrUntrustedMeasurement)
	// ErrConnectionHijacked reports a TLS connection whose public key
	// does not match the attested one — the redirect defence; the
	// evidence no longer binds the session key.
	ErrConnectionHijacked = fmt.Errorf(
		"webext: TLS connection key differs from attested key: %w", attestation.ErrBindingMismatch)
	// ErrNoAttestation reports a site that offers no attestation bundle.
	ErrNoAttestation = errors.New("webext: site offers no attestation endpoint")
)

// WellKnownPath mirrors certmgr.WellKnownPath without importing it (the
// extension is client-side code).
const WellKnownPath = "/.well-known/revelio/attestation"

// Metrics instruments one navigation, feeding Table 3.
type Metrics struct {
	// Attested reports whether this navigation performed a fresh remote
	// attestation (first access in the session).
	Attested bool
	// Total is the end-to-end navigation time.
	Total time.Duration
	// AttestationTime covers bundle fetch + KDS + validation.
	AttestationTime time.Duration
	// ConnValidation covers the per-request connection-context check.
	ConnValidation time.Duration
	// Overridden reports that the user's explicit proceed-anyway decision
	// bypassed attestation for this navigation.
	Overridden bool
}

type site struct {
	golden     measure.Measurement
	attested   bool
	pinnedKey  []byte
	overridden bool
}

// Extension is the web extension instance for one browser.
type Extension struct {
	browser  *browser.Browser
	verifier *attest.Verifier

	mu    sync.Mutex
	sites map[string]*site
}

// New creates an extension in the given browser, validating reports with
// verifier (which wraps the KDS client; enable its cache to model warm
// sessions).
func New(b *browser.Browser, verifier *attest.Verifier) *Extension {
	return &Extension{browser: b, verifier: verifier, sites: make(map[string]*site)}
}

// RegisterSite registers a domain with its expected measurement — the
// manual, secure registration path.
func (e *Extension) RegisterSite(domain string, golden measure.Measurement) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sites[domain] = &site{golden: golden}
	e.browser.Pin(domain, nil)
}

// ResetSession clears per-session attestation state (a new browser
// context re-attests on first access). Override decisions are also
// per-session and cleared, and so are the browser's pins and
// connections: the re-attestation rides a fresh handshake.
func (e *Extension) ResetSession() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range e.sites {
		s.attested = false
		s.pinnedKey = nil
		s.overridden = false
	}
	e.browser.ResetSession()
}

// Override records the user's explicit decision to proceed with a site
// despite a failed check (§5.3.2: "this is flagged to the user and they
// have to make a decision to proceed with or abort the access"). The
// decision lasts for the session; subsequent navigations skip attestation
// and connection validation for this domain, the browser's pin included.
func (e *Extension) Override(domain string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.sites[domain]
	if !ok {
		return fmt.Errorf("%w: %q", ErrSiteNotRegistered, domain)
	}
	s.overridden = true
	e.browser.Pin(domain, nil)
	return nil
}

// siteConfig is the persisted form of a registration.
type siteConfig struct {
	Domain string `json:"domain"`
	Golden string `json:"golden"`
}

// ExportSites serializes the registered sites (the extension's
// configuration dialogue state) for persistence across browser restarts.
func (e *Extension) ExportSites() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	configs := make([]siteConfig, 0, len(e.sites))
	for domain, s := range e.sites {
		configs = append(configs, siteConfig{Domain: domain, Golden: s.golden.String()})
	}
	sort.Slice(configs, func(i, j int) bool { return configs[i].Domain < configs[j].Domain })
	out, err := json.Marshal(configs)
	if err != nil {
		return nil, fmt.Errorf("webext: export sites: %w", err)
	}
	return out, nil
}

// ImportSites loads registrations produced by ExportSites, replacing the
// current set. Session state starts fresh.
func (e *Extension) ImportSites(data []byte) error {
	var configs []siteConfig
	if err := json.Unmarshal(data, &configs); err != nil {
		return fmt.Errorf("webext: import sites: %w", err)
	}
	sites := make(map[string]*site, len(configs))
	for _, c := range configs {
		golden, err := measure.ParseMeasurement(c.Golden)
		if err != nil {
			return fmt.Errorf("webext: import site %q: %w", c.Domain, err)
		}
		sites[c.Domain] = &site{golden: golden}
	}
	e.mu.Lock()
	e.sites = sites
	e.browser.ResetSession()
	e.mu.Unlock()
	return nil
}

// Discover probes a domain for a Revelio attestation endpoint — the
// opportunistic learning path. It returns the measurement the site
// reports so the user can validate it out of band; it does NOT register
// the site.
func (e *Extension) Discover(ctx context.Context, domain string) (measure.Measurement, error) {
	resp, err := e.browser.Get(ctx, domain, WellKnownPath)
	if err != nil {
		// The browser error rides along wrapped, so cancellations and
		// resolution failures stay distinguishable from a site that
		// genuinely lacks the endpoint.
		return measure.Measurement{}, fmt.Errorf("%w: %q: %w", ErrNoAttestation, domain, err)
	}
	if resp.Status != 200 {
		return measure.Measurement{}, fmt.Errorf("%w: %q (status %d)", ErrNoAttestation, domain, resp.Status)
	}
	bundle, err := attest.DecodeBundle(resp.Body)
	if err != nil {
		return measure.Measurement{}, fmt.Errorf("%w: %q: %w", ErrNoAttestation, domain, err)
	}
	res, err := e.verifier.VerifyEvidence(ctx, bundle)
	if err != nil {
		return measure.Measurement{}, fmt.Errorf("%w: %w", ErrAttestationFailed, err)
	}
	return res.Report.Measurement, nil
}

// Navigate loads https://domain/path through the extension: first access
// in a session attests the site; every access validates the connection.
func (e *Extension) Navigate(ctx context.Context, domain, path string) (*browser.Response, *Metrics, error) {
	start := time.Now()
	e.mu.Lock()
	s, ok := e.sites[domain]
	e.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrSiteNotRegistered, domain)
	}

	metrics := &Metrics{}
	e.mu.Lock()
	overridden := s.overridden
	e.mu.Unlock()
	if overridden {
		// The user chose to proceed without protection; load the page
		// like a plain browser would.
		metrics.Overridden = true
		resp, err := e.browser.Get(ctx, domain, path)
		if err != nil {
			return nil, nil, err
		}
		metrics.Total = time.Since(start)
		return resp, metrics, nil
	}
	if !siteAttested(s, &e.mu) {
		if err := e.attestSite(ctx, domain, s, metrics); err != nil {
			return nil, nil, err
		}
	}

	resp, err := e.browser.Get(ctx, domain, path)
	if err != nil {
		if errors.Is(err, browser.ErrPinnedKeyMismatch) {
			// The browser had to open a new connection and the server
			// behind it does not hold the attested key: refused in the
			// handshake, before the request was written.
			return nil, nil, fmt.Errorf("%w: %q: %w", ErrConnectionHijacked, domain, err)
		}
		return nil, nil, err
	}

	// Per-request connection validation, the second line behind the
	// browser's handshake-time pin: the key of the connection that
	// served this response must still be the attested one.
	t0 := time.Now()
	connKey, err := e.browser.ConnectionPublicKey(domain)
	if err != nil {
		return nil, nil, err
	}
	e.mu.Lock()
	pinned := s.pinnedKey
	e.mu.Unlock()
	if !bytes.Equal(connKey, pinned) {
		return nil, nil, fmt.Errorf("%w: %q", ErrConnectionHijacked, domain)
	}
	metrics.ConnValidation = time.Since(t0)
	metrics.Total = time.Since(start)
	return resp, metrics, nil
}

func siteAttested(s *site, mu *sync.Mutex) bool {
	mu.Lock()
	defer mu.Unlock()
	return s.attested
}

// attestSite performs the fresh-session attestation flow with a
// freshness nonce: the served report must bind both the TLS key and our
// challenge, so a recorded bundle from an earlier (since-compromised)
// boot cannot be replayed.
func (e *Extension) attestSite(ctx context.Context, domain string, s *site, metrics *Metrics) error {
	t0 := time.Now()
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return fmt.Errorf("%w: nonce: %w", ErrAttestationFailed, err)
	}
	resp, err := e.browser.Get(ctx, domain, WellKnownPath+"?nonce="+hex.EncodeToString(nonce))
	if err != nil {
		return fmt.Errorf("%w: fetch bundle: %w", ErrAttestationFailed, err)
	}
	if resp.Status != 200 {
		return fmt.Errorf("%w: %q (status %d)", ErrNoAttestation, domain, resp.Status)
	}
	bundle, err := attest.DecodeBundle(resp.Body)
	if err != nil {
		return fmt.Errorf("%w: decode bundle: %w", ErrAttestationFailed, err)
	}

	// Validate the report: VCEK chain via KDS, signature, and the
	// REPORT_DATA binding to the served TLS public key and our nonce.
	res, err := e.verifier.VerifyNonceBound(ctx, bundle, nonce)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrAttestationFailed, err)
	}
	if res.Report.Measurement != s.golden {
		return fmt.Errorf("%w: got %s", ErrMeasurementMismatch, res.Report.Measurement)
	}

	// The secure connection must terminate inside the attested VM: the
	// TLS connection key equals the attested key.
	connKey, err := e.browser.ConnectionPublicKey(domain)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrAttestationFailed, err)
	}
	if !bytes.Equal(connKey, bundle.Payload) {
		return fmt.Errorf("%w: %q", ErrConnectionHijacked, domain)
	}

	e.mu.Lock()
	s.attested = true
	s.pinnedKey = append([]byte(nil), bundle.Payload...)
	// From here on the browser refuses, in the handshake, any new
	// connection for the domain that does not hold the attested key.
	e.browser.Pin(domain, s.pinnedKey)
	e.mu.Unlock()

	metrics.Attested = true
	metrics.AttestationTime = time.Since(t0)
	return nil
}
