// Package kds simulates the AMD Key Distribution Server
// (https://kdsintf.amd.com): the public endpoint verifiers query for the
// certificate chain that authenticates a VCEK, and therefore an
// attestation report.
//
// The server side publishes an Issuer, an interface so this package never
// imports the simulator; the client side is what the web extension and the
// SP node use, including the VCEK cache whose effect Table 3 of the paper
// quantifies (778.9 ms cold vs 115.0 ms warm).
//
// The client sits on the attestation fast path: it caches *parsed*
// certificates in a bounded TTL-LRU and collapses concurrent cold misses
// for the same (chip, TCB) into one HTTP round trip via singleflight.
// Failures are never cached.
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
	"sync"
	"time"

	"revelio/attestation"
	"revelio/internal/cache"
	"revelio/internal/sev"
)

const (
	// CertChainPath serves the concatenated ASK and ARK certificates in
	// PEM, intermediate first, mirroring AMD's cert_chain endpoint.
	CertChainPath = "/kds/v1/cert_chain"
	// VCEKPathPrefix serves DER VCEK certificates at
	// {prefix}/{chipid-hex}?tcb={n}.
	VCEKPathPrefix = "/kds/v1/vcek/"

	// vcekCacheSize bounds the client's parsed-VCEK LRU. One entry per
	// (chip, TCB) pair; 1024 covers a thousand-node fleet with headroom
	// for one TCB rotation.
	vcekCacheSize = 1024
	// vcekTTL is how long a cached VCEK is served before the client
	// re-fetches. The VCEK only rotates on SNP firmware updates, so a day
	// is conservative.
	vcekTTL = 24 * time.Hour
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

// Issuer is the certificate hierarchy a Server publishes; a VCEK it
// cannot issue answers 404. amdsp.Manufacturer is one.
type Issuer interface {
	ARKCertDER() []byte
	ASKCertDER() []byte
	VCEKCertDER(chipID sev.ChipID, tcb uint64) ([]byte, error)
}

// Server exposes an Issuer's certificate hierarchy over HTTP.
type Server struct {
	issuer   Issuer
	mux      *http.ServeMux
	chainPEM []byte // precomputed cert_chain response body
}

var _ http.Handler = (*Server)(nil)

// NewServer creates a KDS front end for the issuer. The cert_chain PEM
// body is encoded once here; each VCEK request asks the issuer.
func NewServer(issuer Issuer) *Server {
	s := &Server{issuer: issuer, mux: http.NewServeMux()}
	s.chainPEM = append(pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: issuer.ASKCertDER()}),
		pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: issuer.ARKCertDER()})...)
	s.mux.HandleFunc("GET "+CertChainPath, s.handleCertChain)
	s.mux.HandleFunc("GET "+VCEKPathPrefix+"{chipid}", s.handleVCEK)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleCertChain(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-pem-file")
	_, _ = w.Write(s.chainPEM)
}

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
	if err != nil {
		http.Error(w, "unknown chip", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/pkix-cert")
	_, _ = w.Write(der)
}

// chainPair is the parsed ASK/ARK pair the client caches.
type chainPair struct {
	ask, ark *x509.Certificate
}

// Client fetches and caches KDS certificates. Certificates returned from
// the cache are shared — callers must treat them as immutable, which is
// how x509.Certificate is used throughout the crypto stack.
type Client struct {
	base string
	http *http.Client
	now  func() time.Time

	vcek    *cache.Cache[string, *x509.Certificate] // parsed VCEKs per chipidhex:tcb, each served for vcekTTL
	vflight flight[*x509.Certificate]
	cflight flight[chainPair]

	mu      sync.Mutex
	caching bool
	chain   *chainPair // parsed cert_chain, nil until fetched
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
		base: base,
		http: httpClient,
		now:  time.Now,
		vcek: cache.New[string, *x509.Certificate](vcekCacheSize),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// SetCaching toggles the VCEK/chain cache. The paper's Table 3 motivates
// caching: the VCEK only changes on SNP firmware updates. Disabling
// clears all cached state. Concurrent duplicate fetches are collapsed by
// singleflight regardless of this setting.
func (c *Client) SetCaching(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.caching = on
	if !on {
		c.vcek.Purge()
		c.chain = nil
	}
}

// vcekNotAfter is when a VCEK cached now stops being served.
func (c *Client) vcekNotAfter() time.Time { return c.now().Add(vcekTTL) }

func (c *Client) cachingOn() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.caching
}

// sharedFlightDied reports a shared singleflight result that failed only
// because the *leader's* context died while ours is still live — the one
// case where a follower should retry rather than inherit the failure.
func sharedFlightDied(ctx context.Context, err error, shared bool) bool {
	return shared && err != nil && ctx.Err() == nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
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

// CertChain fetches the ASK and ARK certificates (in that order). The
// parsed pair is cached, so repeated calls cost neither a round trip nor
// a pem.Decode/x509.ParseCertificate pass; concurrent cold calls share
// one fetch.
func (c *Client) CertChain(ctx context.Context) (ask, ark *x509.Certificate, err error) {
	c.mu.Lock()
	cached := c.chain
	c.mu.Unlock()
	if cached != nil {
		return cached.ask, cached.ark, nil
	}
	pair, err := c.fetchChain(ctx, true)
	if err != nil {
		return nil, nil, err
	}
	return pair.ask, pair.ark, nil
}

// parseCertChain parses a cert_chain response: PEM blocks, each a
// certificate, exactly two of them, ASK first. Bytes outside the blocks
// are skipped, as pem.Decode skips them. Every failure wraps
// ErrBadResponse. The body comes from the network, so the parser holds
// up under FuzzParseCertChain.
func parseCertChain(body []byte) (chainPair, error) {
	var certs []*x509.Certificate
	rest := body
	for {
		var block *pem.Block
		block, rest = pem.Decode(rest)
		if block == nil {
			break
		}
		cert, err := x509.ParseCertificate(block.Bytes)
		if err != nil {
			return chainPair{}, fmt.Errorf("%w: %v", ErrBadResponse, err)
		}
		certs = append(certs, cert)
	}
	if len(certs) != 2 {
		return chainPair{}, fmt.Errorf("%w: got %d certificates, want 2", ErrBadResponse, len(certs))
	}
	return chainPair{ask: certs[0], ark: certs[1]}, nil
}

func (c *Client) fetchChain(ctx context.Context, retry bool) (chainPair, error) {
	pair, err, shared := c.cflight.Do("chain", func() (chainPair, error) {
		// Re-check under the flight: a caller that missed the cache just
		// before a previous leader completed must not fetch again.
		c.mu.Lock()
		cached := c.chain
		c.mu.Unlock()
		if cached != nil {
			return *cached, nil
		}
		body, err := c.get(ctx, c.base+CertChainPath)
		if err != nil {
			return chainPair{}, err
		}
		pair, err := parseCertChain(body)
		if err != nil {
			return chainPair{}, err
		}
		c.mu.Lock()
		if c.caching {
			c.chain = &pair
		}
		c.mu.Unlock()
		return pair, nil
	})
	if retry && sharedFlightDied(ctx, err, shared) {
		return c.fetchChain(ctx, false) // the leader's caller bailed; retry under our context
	}
	return pair, err
}

// VCEK fetches the VCEK certificate for a chip at a TCB version. Hits are
// served from the parsed-certificate LRU without re-parsing; concurrent
// misses for the same (chip, TCB) collapse into one HTTP round trip.
// Errors are never cached — the next call retries.
func (c *Client) VCEK(ctx context.Context, chipID sev.ChipID, tcb uint64) (*x509.Certificate, error) {
	key := hex.EncodeToString(chipID[:]) + ":" + strconv.FormatUint(tcb, 10)
	if c.cachingOn() {
		if cert, ok := c.vcek.Get(key, 0, c.now()); ok {
			return cert, nil
		}
	}
	fetch := func() (*x509.Certificate, error) {
		// Re-check under the flight: a caller that missed the cache just
		// before a previous leader completed must not fetch again.
		if c.cachingOn() {
			if cert, ok := c.vcek.Get(key, 0, c.now()); ok {
				return cert, nil
			}
		}
		url := fmt.Sprintf("%s%s%s?tcb=%d", c.base, VCEKPathPrefix, hex.EncodeToString(chipID[:]), tcb)
		der, err := c.get(ctx, url)
		if err != nil {
			return nil, err
		}
		cert, err := x509.ParseCertificate(der)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadResponse, err)
		}
		if c.cachingOn() {
			c.vcek.Put(key, cert, 0, c.vcekNotAfter())
		}
		return cert, nil
	}
	cert, err, shared := c.vflight.Do(key, fetch)
	if sharedFlightDied(ctx, err, shared) {
		cert, err, _ = c.vflight.Do(key, fetch) // leader's caller bailed; retry under our context
	}
	return cert, err
}
