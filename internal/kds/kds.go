// Package kds simulates the AMD Key Distribution Server
// (https://kdsintf.amd.com): the public endpoint verifiers query for the
// certificate chain that authenticates a VCEK, and therefore an
// attestation report.
//
// The server side publishes an Issuer's VCEKs, an interface so this
// package never imports the simulator, and the product line's ASK and ARK
// as internal/sev carries them; the client side is what the web extension
// and the SP node use to fetch VCEKs, including the cache whose effect
// Table 3 of the paper quantifies (778.9 ms cold vs 115.0 ms warm).
//
// The client sits on the attestation fast path. It keeps *parsed*
// certificates in one cache.Cache whose every entry is served for vcekTTL,
// and reaches the network through one miss path that collapses concurrent
// misses for a key into one HTTP round trip. Failures are never cached.
package kds

import (
	"context"
	"crypto/x509"
	"encoding/hex"
	"encoding/pem"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"revelio/attestation"
	"revelio/internal/cache"
	"revelio/internal/sev"
)

const (
	// CertChainPath serves the product line's ASK and ARK certificates in
	// PEM, intermediate first, mirroring AMD's cert_chain endpoint.
	CertChainPath = "/kds/v1/cert_chain"
	// VCEKPathPrefix serves DER VCEK certificates at
	// {prefix}/{chipid-hex}?tcb={n}.
	VCEKPathPrefix = "/kds/v1/vcek/"

	// vcekCacheSize bounds the VCEKs the client's cache holds, which
	// also holds the ASK/ARK pair. One entry per (chip, TCB) pair; 1024
	// covers a thousand-node fleet with headroom for one TCB rotation.
	vcekCacheSize = 1024
	// vcekTTL is how long a cached VCEK or ASK/ARK pair is served before
	// the client re-fetches. The VCEK only rotates on SNP firmware
	// updates, the ASK less often, so a day is conservative.
	vcekTTL = 24 * time.Hour
	// chainKey is the ASK/ARK pair's cache and flight key; no VCEK key
	// (chipidhex:tcb) equals it.
	chainKey = "cert_chain"
)

var (
	// ErrNotFound reports an unknown chip or malformed query. A chip the
	// KDS does not know has no VCEK to chain to, so the evidence naming
	// it is invalid (attestation.ErrChainInvalid).
	ErrNotFound = fmt.Errorf("%w: kds: certificate not found", attestation.ErrChainInvalid)
	// ErrBadResponse reports an unparseable KDS payload (a VCEK or
	// cert_chain body): the certificate source answered, but with nothing
	// usable (attestation.ErrKDSUnavailable).
	ErrBadResponse = fmt.Errorf("%w: kds: bad response", attestation.ErrKDSUnavailable)
)

// Issuer issues the VCEKs a Server publishes, under the product line's
// ASK. A VCEK it cannot issue because it never minted the chip (an error
// wrapping sev.ErrUnknownChip) answers 404; any other failure answers 500.
// amdsp.Manufacturer is one.
type Issuer interface {
	VCEKCertDER(chipID sev.ChipID, tcb uint64) ([]byte, error)
}

// Server exposes an Issuer's VCEKs, and the product line's chain above
// them, over HTTP.
type Server struct {
	issuer Issuer
	mux    *http.ServeMux
}

var _ http.Handler = (*Server)(nil)

// NewServer creates a KDS front end for the issuer; each VCEK request
// asks it.
func NewServer(issuer Issuer) *Server {
	s := &Server{issuer: issuer, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET "+CertChainPath, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-pem-file")
		_, _ = io.WriteString(w, sev.ProductChainPEM())
	})
	s.mux.HandleFunc("GET "+VCEKPathPrefix+"{chipid}", s.handleVCEK)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleVCEK(w http.ResponseWriter, r *http.Request) {
	raw, err := hex.DecodeString(r.PathValue("chipid"))
	if err != nil || len(raw) != sev.ChipIDSize {
		http.Error(w, "bad chip id", http.StatusBadRequest)
		return
	}
	var chipID sev.ChipID
	copy(chipID[:], raw)
	tcb, err := strconv.ParseUint(r.URL.Query().Get("tcb"), 10, 64)
	if err != nil {
		http.Error(w, "bad tcb", http.StatusBadRequest)
		return
	}
	der, err := s.issuer.VCEKCertDER(chipID, tcb)
	if errors.Is(err, sev.ErrUnknownChip) {
		http.Error(w, "unknown chip", http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, "issuer fault", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/pkix-cert")
	_, _ = w.Write(der)
}

// certs is one parsed KDS answer as the client caches it: a VCEK, or the
// ASK/ARK pair.
type certs struct {
	vcek, ask, ark *x509.Certificate
}

// Client fetches and caches KDS certificates. Certificates returned from
// the cache are shared — callers must treat them as immutable, which is
// how x509.Certificate is used throughout the crypto stack.
type Client struct {
	base string
	http *http.Client
	now  func() time.Time

	caching atomic.Bool
	cache   *cache.Cache[string, certs] // the ASK/ARK pair under chainKey, each VCEK under chipidhex:tcb
	flight  flight[certs]
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithClock injects a test clock for TTL expiry.
func WithClock(now func() time.Time) ClientOption {
	return func(c *Client) { c.now = now }
}

// NewClient creates a client for a KDS at base (e.g. an httptest URL or a
// netlab-wrapped transport). A nil httpClient selects http.DefaultClient.
func NewClient(base string, httpClient *http.Client, opts ...ClientOption) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{
		base:  base,
		http:  httpClient,
		now:   time.Now,
		cache: cache.New[string, certs](vcekCacheSize + 1), // every VCEK plus the ASK/ARK pair
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// SetCaching toggles the VCEK/chain cache. The paper's Table 3 motivates
// caching: the VCEK only changes on SNP firmware updates. Disabling
// clears all cached state. Concurrent duplicate fetches are collapsed by
// the flight regardless of this setting.
func (c *Client) SetCaching(on bool) {
	c.caching.Store(on)
	if !on {
		c.cache.Purge()
	}
}

func (c *Client) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("kds: build request: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// A caller-initiated abort is not a KDS outage: surface the
		// context error (wrapped inside err by net/http) unclassified so
		// errors.Is(err, context.Canceled) holds and nothing upstream
		// mistakes the abort for an unavailable certificate source.
		if ctx.Err() != nil {
			return nil, fmt.Errorf("kds: fetch %s: %w", url, err)
		}
		return nil, fmt.Errorf("%w: fetch %s: %w", attestation.ErrKDSUnavailable, url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode == http.StatusNotFound {
		return nil, ErrNotFound
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%w: fetch %s: status %d", attestation.ErrKDSUnavailable, url, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("kds: read body: %w", err)
	}
	return body, nil
}

// lookup is the client's one path to the KDS. A hit returns the parsed
// certificates cached under key. A miss fetches the body at path(key)
// and parses it, once per key however many callers miss together, and
// caches the result for vcekTTL. An error is never cached, nor is
// anything while caching is off.
func (c *Client) lookup(ctx context.Context, key string, path func(key string) string, parse func([]byte) (certs, error)) (certs, error) {
	if c.caching.Load() {
		if v, ok := c.cache.Get(key, 0, c.now()); ok {
			return v, nil
		}
	}
	fill := func() (certs, error) {
		// Re-check under the flight: a caller that missed the cache just
		// before a previous leader completed must not fetch again.
		if c.caching.Load() {
			if v, ok := c.cache.Get(key, 0, c.now()); ok {
				return v, nil
			}
		}
		body, err := c.get(ctx, c.base+path(key))
		if err != nil {
			return certs{}, err
		}
		v, err := parse(body)
		if err != nil {
			return certs{}, err
		}
		if c.caching.Load() {
			// No lower bound: the TTL counts from this fetch, and whether
			// a certificate is valid at the clock is the verifier's to
			// judge, on its own fence.
			c.cache.Put(key, v, 0, time.Time{}, c.now().Add(vcekTTL))
			if !c.caching.Load() { // SetCaching(false) purged before the Put
				c.cache.Delete(key)
			}
		}
		return v, nil
	}
	v, err, shared := c.flight.Do(key, fill)
	if shared && err != nil && ctx.Err() == nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// Only the leader's context died; ours is live, so retry under it
		// rather than inherit the failure.
		v, err, _ = c.flight.Do(key, fill)
	}
	return v, err
}

func chainPath(string) string { return CertChainPath }

// CertChain fetches the ASK and ARK certificates (in that order). No
// verifier calls it, since verifiers carry the pair: its one caller is the
// benchmark's kds.cert_chain_miss_us rung. The parsed pair is cached, and
// concurrent cold calls share one fetch.
func (c *Client) CertChain(ctx context.Context) (ask, ark *x509.Certificate, err error) {
	v, err := c.lookup(ctx, chainKey, chainPath, parseCertChain)
	return v.ask, v.ark, err
}

// parseCertChain parses a cert_chain response: PEM blocks, each a
// certificate, exactly two of them, ASK first. Bytes outside the blocks
// are skipped, as pem.Decode skips them. Every failure wraps
// ErrBadResponse. The body comes from the network, so the parser holds
// up under FuzzParseCertChain.
func parseCertChain(body []byte) (certs, error) {
	var parsed []*x509.Certificate
	rest := body
	for {
		var block *pem.Block
		block, rest = pem.Decode(rest)
		if block == nil {
			break
		}
		cert, err := x509.ParseCertificate(block.Bytes)
		if err != nil {
			return certs{}, fmt.Errorf("%w: %v", ErrBadResponse, err)
		}
		parsed = append(parsed, cert)
	}
	if len(parsed) != 2 {
		return certs{}, fmt.Errorf("%w: got %d certificates, want 2", ErrBadResponse, len(parsed))
	}
	return certs{ask: parsed[0], ark: parsed[1]}, nil
}

// vcekPath is the KDS path of the VCEK under key, chipidhex:tcb.
func vcekPath(key string) string {
	chip, tcb, _ := strings.Cut(key, ":")
	return VCEKPathPrefix + chip + "?tcb=" + tcb
}

// parseVCEK parses a VCEK response, one DER certificate. A failure
// wraps ErrBadResponse.
func parseVCEK(der []byte) (certs, error) {
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return certs{}, fmt.Errorf("%w: %v", ErrBadResponse, err)
	}
	return certs{vcek: cert}, nil
}

// VCEK fetches the VCEK certificate for a chip at a TCB version. Hits are
// served from the parsed-certificate LRU without re-parsing; concurrent
// misses for the same (chip, TCB) collapse into one HTTP round trip.
// Errors are never cached — the next call retries.
func (c *Client) VCEK(ctx context.Context, chipID sev.ChipID, tcb uint64) (*x509.Certificate, error) {
	key := hex.EncodeToString(chipID[:]) + ":" + strconv.FormatUint(tcb, 10)
	v, err := c.lookup(ctx, key, vcekPath, parseVCEK)
	return v.vcek, err
}
