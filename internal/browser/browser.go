// Package browser is the minimal browser harness the web extension runs
// in: it performs real TLS connections (against the simulated CA roots),
// resolves domain names through a mutable resolver — which a malicious
// service provider controls, enabling the redirect attacks of §5.3.2 —
// and exposes the connection-context API ("the public key of the current
// TLS connection") that the paper notes only Firefox currently provides.
//
// # Connection lifetime
//
// A Browser keeps its TLS connections alive (HTTP/1.1 keep-alive) for
// the browser session, as a real browser does: the handshake — and with
// it the attestation the extension binds to the connection's key — is
// paid once, and later navigations ride the established connection.
// Four things end a connection's life: Resolve pointing the domain at a
// different address (the next navigation dials the new address, so a
// DNS redirect bites at once), ResetSession (a new browser context),
// Close, and the Browser becoming garbage (a finalizer releases what
// Close would have). The peer may also close an idle connection at any
// time; the next navigation then redials transparently.
//
// Validation happens twice. At every handshake the certificate is
// verified against the roots for the domain and, if the extension has
// pinned a key for the domain (Pin), the connection's key is compared
// with the pin before the request is written, so a hijacker's server
// never sees it. On every response the key of the connection that
// actually served it is recorded as the domain's connection context,
// which the extension compares with its pin again.
package browser

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"time"
)

var (
	// ErrUnresolvable reports a domain the resolver has no entry for.
	ErrUnresolvable = errors.New("browser: domain does not resolve")
	// ErrNoConnection reports a connection-context query for a host the
	// browser has not connected to.
	ErrNoConnection = errors.New("browser: no connection context for host")
	// ErrPinnedKeyMismatch reports a handshake whose server key differs
	// from the key pinned for the domain; the connection is refused
	// before any request is written to it.
	ErrPinnedKeyMismatch = errors.New("browser: TLS key differs from the key pinned for the domain")
)

// idleConnTimeout bounds how long an unused connection is kept, like a
// real browser's (and http.DefaultTransport's) keep-alive timeout.
const idleConnTimeout = 90 * time.Second

// Response is what a page load returns.
type Response struct {
	Status int
	Body   []byte
	// TLSPublicKeyDER is the server certificate's public key from the
	// connection that served this response. It aliases the parsed
	// certificate: read it, do not write to it.
	TLSPublicKeyDER []byte
}

// Browser holds trust anchors, the resolver, the session's TLS
// connections and the per-host connection contexts.
type Browser struct {
	rtt   time.Duration
	names *names

	// client's transport holds the session's connections. A response
	// that has been read to its end has already returned its connection
	// to the pool (net/http holds the reader at EOF until it has), so
	// emptying the pool between two navigations leaves the second none
	// to reuse.
	client *http.Client

	mu    sync.Mutex
	conns map[string][]byte // domain -> current TLS public key DER
}

// names is what a dial needs to know: the trust anchors, where each
// domain resolves to and which key, if any, is pinned for it. The
// transport's dial function holds it — and must hold nothing that leads
// back to the Browser: an idle connection's goroutines keep the
// transport reachable, so a reference from there to the Browser would
// keep a dropped Browser alive, its finalizer would never run and its
// connection would stay open for the rest of the process.
type names struct {
	roots *x509.CertPool

	mu       sync.Mutex
	resolver map[string]string // domain -> host:port
	pins     map[string][]byte // domain -> pinned TLS public key DER
}

// New creates a browser trusting the given CA roots, with rtt injected
// per request (the paper's 5.2 ms base network latency).
func New(roots *x509.CertPool, rtt time.Duration) *Browser {
	n := &names{
		roots:    roots,
		resolver: make(map[string]string),
		pins:     make(map[string][]byte),
	}
	b := &Browser{
		rtt:   rtt,
		names: n,
		client: &http.Client{Transport: &http.Transport{
			DialTLSContext:  n.dialTLS,
			IdleConnTimeout: idleConnTimeout,
		}},
		conns: make(map[string][]byte),
	}
	// A Browser that is dropped without Close still gives its
	// connections back.
	runtime.SetFinalizer(b, (*Browser).Close)
	return b
}

// dialTLS connects to wherever domain resolves to now and verifies the
// certificate for the domain (not the resolved address) and the
// connection's key against the domain's pin.
func (n *names) dialTLS(ctx context.Context, network, hostport string) (net.Conn, error) {
	domain, _, err := net.SplitHostPort(hostport)
	if err != nil {
		return nil, err
	}
	addr, err := n.lookUp(domain)
	if err != nil {
		return nil, err
	}
	dialer := &net.Dialer{Timeout: 10 * time.Second}
	raw, err := dialer.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	conn := tls.Client(raw, &tls.Config{
		RootCAs:    n.roots,
		ServerName: domain,
		// Runs after the chain verified, before the handshake completes:
		// a refused connection never carries a request.
		VerifyConnection: func(cs tls.ConnectionState) error {
			return n.checkPin(domain, cs)
		},
	})
	if err := conn.HandshakeContext(ctx); err != nil {
		_ = raw.Close()
		return nil, err
	}
	return conn, nil
}

// lookUp resolves a domain.
func (n *names) lookUp(domain string) (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr, ok := n.resolver[domain]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnresolvable, domain)
	}
	return addr, nil
}

func (n *names) checkPin(domain string, cs tls.ConnectionState) error {
	n.mu.Lock()
	pin := n.pins[domain]
	n.mu.Unlock()
	if pin == nil {
		return nil
	}
	if !bytes.Equal(peerKeyDER(&cs), pin) {
		return fmt.Errorf("%w: %q", ErrPinnedKeyMismatch, domain)
	}
	return nil
}

// peerKeyDER is the server certificate's public key, nil when the peer
// presented none: the SubjectPublicKeyInfo as the certificate carries it,
// which for a key a certificate of this repository's can hold is byte for
// byte what x509.MarshalPKIXPublicKey makes of the parsed key — the form
// pins and attested payloads are in. Any other encoding of a key matches
// neither.
func peerKeyDER(cs *tls.ConnectionState) []byte {
	if cs == nil || len(cs.PeerCertificates) == 0 {
		return nil
	}
	return cs.PeerCertificates[0].RawSubjectPublicKeyInfo
}

// Resolve points a domain at an address. A malicious service provider can
// repoint it at any time — the extension's connection validation is the
// defence. Repointing a domain drops the session's idle connections, so
// the next navigation dials the new address.
func (b *Browser) Resolve(domain, addr string) {
	n := b.names
	n.mu.Lock()
	old, had := n.resolver[domain]
	n.resolver[domain] = addr
	n.mu.Unlock()
	if had && old != addr {
		b.client.CloseIdleConnections()
	}
}

// Pin records the key the domain's connections must present: from now
// on a handshake with any other key fails with ErrPinnedKeyMismatch
// before a request is written. An empty key removes the pin. The pin is
// data the extension hands over, not a callback into it, for the reason
// given on names.
func (b *Browser) Pin(domain string, keyDER []byte) {
	n := b.names
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(keyDER) == 0 {
		delete(n.pins, domain)
		return
	}
	n.pins[domain] = append([]byte(nil), keyDER...)
}

// ResetSession starts a new browser context: pins and connection
// contexts are forgotten and the connections dropped, so the next
// navigation pays a fresh handshake. The resolver is kept.
func (b *Browser) ResetSession() {
	n := b.names
	n.mu.Lock()
	clear(n.pins)
	n.mu.Unlock()
	b.mu.Lock()
	clear(b.conns)
	b.mu.Unlock()
	b.client.CloseIdleConnections()
}

// Close releases the browser's connections at once. The Browser stays
// usable — a later Get dials again — and a Browser that is dropped
// without Close releases them when it is garbage collected.
func (b *Browser) Close() {
	b.client.CloseIdleConnections()
}

// Get fetches https://domain/path over the session's connection to the
// domain, dialling one if there is none: the server certificate is
// verified against the browser roots for the *domain* (not the resolved
// address), exactly like a real browser, and the key against the
// domain's pin. The connection context for the domain is updated to the
// key of the connection that served the response. Cancelling ctx aborts
// the navigation at any stage — before the simulated network latency,
// mid-dial, or mid-response — with a wrapped context error.
func (b *Browser) Get(ctx context.Context, domain, path string) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("browser: get %q: %w", domain, err)
	}
	// The dial resolves the domain when it needs to; asking first fails
	// an unknown domain before the simulated latency, not after it.
	if _, err := b.names.lookUp(domain); err != nil {
		return nil, err
	}
	if b.rtt > 0 {
		// The injected latency honours cancellation: a user closing the
		// tab does not wait out the network simulation.
		timer := time.NewTimer(b.rtt)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, fmt.Errorf("browser: get %q: %w", domain, ctx.Err())
		case <-timer.C:
		}
	}

	u := url.URL{Scheme: "https", Host: domain, Path: path}
	// Split an embedded query string ("/p?k=v") like a real address bar.
	if parsed, err := url.Parse(path); err == nil {
		u.Path = parsed.Path
		u.RawQuery = parsed.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("browser: get %s: %w", u.String(), err)
	}
	defer func() { _ = resp.Body.Close() }()

	pubDER := peerKeyDER(resp.TLS)
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}

	b.mu.Lock()
	b.conns[domain] = pubDER
	b.mu.Unlock()

	return &Response{Status: resp.StatusCode, Body: body, TLSPublicKeyDER: pubDER}, nil
}

// ConnectionPublicKey is the extension-facing API: the public key of the
// current TLS connection to domain.
func (b *Browser) ConnectionPublicKey(domain string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	key, ok := b.conns[domain]
	if !ok || key == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoConnection, domain)
	}
	return append([]byte(nil), key...), nil
}
