// Package acme simulates the Let's Encrypt certificate authority and a
// certbot-style client (§2.2): domain-validated certificate issuance via
// DNS-01 challenges, automated end to end, with the per-domain rate limits
// whose existence motivates Revelio's shared-certificate design (§3.4.6).
//
// The CA validates a CSR's self-signature, challenges the requester to
// prove DNS control of the domain, enforces the rate limit, and issues a
// certificate binding the CSR's public key to the domain under the
// simulated browser-trusted root.
package acme

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"
)

var (
	// ErrRateLimited reports a domain that exceeded the issuance rate
	// limit (Let's Encrypt: 50 certificates per registered domain per
	// week).
	ErrRateLimited = errors.New("acme: rate limit exceeded for domain")
	// ErrChallengeFailed reports a DNS-01 challenge the CA could not
	// validate.
	ErrChallengeFailed = errors.New("acme: dns-01 challenge validation failed")
	// ErrBadCSR reports a malformed or incorrectly signed CSR.
	ErrBadCSR = errors.New("acme: bad certificate signing request")
)

// rateLimit and rateWindow mirror Let's Encrypt's certificates-per-
// registered-domain limit.
const (
	rateLimit  = 50
	rateWindow = 7 * 24 * time.Hour
	// certLifetime mirrors Let's Encrypt's 90-day certificates, which is
	// why Table 2's operations recur every 90 days.
	certLifetime = 90 * 24 * time.Hour
)

// Zone is the shared DNS zone: the service provider's DNS records, which
// the SP node has credentials to edit and the CA queries to validate
// challenges.
type Zone struct {
	mu  sync.Mutex
	txt map[string][]string
}

// NewZone creates an empty DNS zone.
func NewZone() *Zone {
	return &Zone{txt: make(map[string][]string)}
}

// SetTXT replaces the TXT records at name.
func (z *Zone) SetTXT(name string, values ...string) {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.txt[name] = append([]string(nil), values...)
}

// LookupTXT returns the TXT records at name.
func (z *Zone) LookupTXT(name string) []string {
	z.mu.Lock()
	defer z.mu.Unlock()
	return append([]string(nil), z.txt[name]...)
}

// CA is the simulated browser-trusted certificate authority.
type CA struct {
	key  *ecdsa.PrivateKey
	cert *x509.Certificate
	zone *Zone
	now  func() time.Time

	rateLimit  int
	rateWindow time.Duration
	latency    time.Duration

	mu        sync.Mutex
	issuances map[string][]time.Time // domain -> issuance times
	serial    int64
}

// Option configures a CA.
type Option func(*CA)

// WithClock injects a test clock.
func WithClock(now func() time.Time) Option { return func(c *CA) { c.now = now } }

// WithLatency injects a per-operation delay, modelling the WAN round
// trips to a real CA (the paper's certificate generation takes ~3 s
// against Let's Encrypt).
func WithLatency(d time.Duration) Option { return func(c *CA) { c.latency = d } }

// NewCA creates a CA with a fresh root key, validating challenges against
// zone.
func NewCA(zone *Zone, opts ...Option) (*CA, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("acme: generate ca key: %w", err)
	}
	ca := &CA{
		key:        key,
		zone:       zone,
		now:        time.Now,
		rateLimit:  rateLimit,
		rateWindow: rateWindow,
		issuances:  make(map[string][]time.Time),
		serial:     1,
	}
	for _, o := range opts {
		o(ca)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "ISRG-SIM Root", Organization: []string{"LetsEncrypt-SIM"}},
		NotBefore:             ca.now().Add(-time.Hour),
		NotAfter:              ca.now().Add(30 * 365 * 24 * time.Hour),
		IsCA:                  true,
		BasicConstraintsValid: true,
		KeyUsage:              x509.KeyUsageCertSign,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("acme: create root cert: %w", err)
	}
	if ca.cert, err = x509.ParseCertificate(der); err != nil {
		return nil, fmt.Errorf("acme: parse root cert: %w", err)
	}
	return ca, nil
}

// RootCert returns the CA's root certificate, the trust anchor browsers
// ship.
func (c *CA) RootCert() *x509.Certificate { return c.cert }

// challengeName returns the DNS name a DNS-01 challenge uses.
func challengeName(domain string) string { return "_acme-challenge." + domain }

// challengeValue derives the expected TXT value from a token.
func challengeValue(token string) string {
	sum := sha256.Sum256([]byte(token))
	return hex.EncodeToString(sum[:])
}

// Order is an in-progress issuance.
type Order struct {
	Domain string
	Token  string
	csr    *x509.CertificateRequest
	csrDER []byte
}

// NewOrder starts issuance for the domain in csrDER. The returned order
// carries the DNS-01 token the requester must publish.
func (c *CA) NewOrder(domain string, csrDER []byte) (*Order, error) {
	time.Sleep(c.latency)
	csr, err := x509.ParseCertificateRequest(csrDER)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCSR, err)
	}
	if err := csr.CheckSignature(); err != nil {
		return nil, fmt.Errorf("%w: signature: %v", ErrBadCSR, err)
	}
	if csr.Subject.CommonName != domain && !contains(csr.DNSNames, domain) {
		return nil, fmt.Errorf("%w: csr does not cover domain %q", ErrBadCSR, domain)
	}
	tokenBytes := make([]byte, 16)
	if _, err := rand.Read(tokenBytes); err != nil {
		return nil, fmt.Errorf("acme: token entropy: %w", err)
	}
	return &Order{
		Domain: domain,
		Token:  hex.EncodeToString(tokenBytes),
		csr:    csr,
		csrDER: csrDER,
	}, nil
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// Finalize validates the DNS-01 challenge and, if the rate limit allows,
// issues the certificate for the order's CSR.
func (c *CA) Finalize(order *Order) ([]byte, error) {
	time.Sleep(c.latency)
	want := challengeValue(order.Token)
	if !contains(c.zone.LookupTXT(challengeName(order.Domain)), want) {
		return nil, fmt.Errorf("%w: %s", ErrChallengeFailed, order.Domain)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	recent := c.issuances[order.Domain][:0]
	for _, ts := range c.issuances[order.Domain] {
		if now.Sub(ts) < c.rateWindow {
			recent = append(recent, ts)
		}
	}
	c.issuances[order.Domain] = recent
	if len(recent) >= c.rateLimit {
		return nil, fmt.Errorf("%w: %s (%d in window)", ErrRateLimited, order.Domain, len(recent))
	}

	c.serial++
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(c.serial),
		Subject:      pkix.Name{CommonName: order.Domain},
		DNSNames:     order.csr.DNSNames,
		NotBefore:    now.Add(-time.Hour),
		NotAfter:     now.Add(certLifetime),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, c.cert, order.csr.PublicKey, c.key)
	if err != nil {
		return nil, fmt.Errorf("acme: issue certificate: %w", err)
	}
	c.issuances[order.Domain] = append(c.issuances[order.Domain], now)
	return der, nil
}

// Client is the certbot-style automation: it drives an order through
// challenge publication and finalization using the DNS credentials it
// holds (the SP node's role in §5.3).
type Client struct {
	ca   *CA
	zone *Zone
}

// NewClient creates a client holding DNS write credentials for zone.
func NewClient(ca *CA, zone *Zone) *Client {
	return &Client{ca: ca, zone: zone}
}

// ObtainCertificate runs the full ACME flow for domain with the given CSR
// and returns the DER certificate. The flow performs no I/O of its own
// (WithLatency models the CA round trips), so ctx is checked before the
// first step: a caller that has given up issues nothing.
func (cl *Client) ObtainCertificate(ctx context.Context, domain string, csrDER []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	order, err := cl.ca.NewOrder(domain, csrDER)
	if err != nil {
		return nil, err
	}
	cl.zone.SetTXT(challengeName(domain), challengeValue(order.Token))
	cert, err := cl.ca.Finalize(order)
	if err != nil {
		return nil, err
	}
	// Clean up the challenge record, as certbot does.
	cl.zone.SetTXT(challengeName(domain))
	return cert, nil
}
