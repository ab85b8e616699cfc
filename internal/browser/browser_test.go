package browser

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"revelio/internal/acme"
)

// tlsServer is a loopback HTTPS server for domain under the test CA
// that counts its handshakes and can kill its connections.
type tlsServer struct {
	addr string
	// pubs[i] is the key presented in handshake i (the last one from
	// then on).
	pubs       [][]byte
	handshakes atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// closeConns closes every open connection from the server's side, the
// way a server times out idle keep-alive connections (or an attacker
// in the network path resets them).
func (s *tlsServer) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		_ = c.Close()
	}
}

// issueCert generates a key and obtains a CA-signed certificate for
// domain.
func issueCert(t *testing.T, ca *acme.CA, zone *acme.Zone, domain string) (tls.Certificate, []byte) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := x509.CreateCertificateRequest(rand.Reader, &x509.CertificateRequest{
		Subject:  pkix.Name{CommonName: domain},
		DNSNames: []string{domain},
	}, key)
	if err != nil {
		t.Fatal(err)
	}
	certDER, err := acme.NewClient(ca, zone).ObtainCertificate(context.Background(), domain, csr)
	if err != nil {
		t.Fatal(err)
	}
	pubDER, err := x509.MarshalPKIXPublicKey(&key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	return tls.Certificate{Certificate: [][]byte{certDER}, PrivateKey: key}, pubDER
}

// startServer serves handler over TLS on a loopback listener with
// `keys` certificates for domain, one key each: handshake i presents
// certificate i, the last one from then on.
func startServer(t *testing.T, ca *acme.CA, zone *acme.Zone, domain string, keys int, handler http.Handler) *tlsServer {
	t.Helper()
	s := &tlsServer{conns: make(map[net.Conn]struct{})}
	certs := make([]tls.Certificate, keys)
	for i := range certs {
		var pub []byte
		certs[i], pub = issueCert(t, ca, zone, domain)
		s.pubs = append(s.pubs, pub)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.addr = ln.Addr().String()
	tlsLn := tls.NewListener(ln, &tls.Config{
		GetCertificate: func(*tls.ClientHelloInfo) (*tls.Certificate, error) {
			i := int(s.handshakes.Add(1)) - 1
			return &certs[min(i, len(certs)-1)], nil
		},
	})
	server := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ConnState: func(c net.Conn, state http.ConnState) {
			s.mu.Lock()
			defer s.mu.Unlock()
			switch state {
			case http.StateNew:
				s.conns[c] = struct{}{}
			case http.StateClosed, http.StateHijacked:
				delete(s.conns, c)
			}
		},
	}
	go func() { _ = server.Serve(tlsLn) }()
	t.Cleanup(func() { _ = server.Close() })
	return s
}

// startTLSServer issues a CA-signed certificate for domain and serves
// handler over TLS on a loopback listener, returning the address.
func startTLSServer(t *testing.T, ca *acme.CA, zone *acme.Zone, domain string, handler http.Handler) (addr string, pubDER []byte) {
	t.Helper()
	s := startServer(t, ca, zone, domain, 1, handler)
	return s.addr, s.pubs[0]
}

func newTestCA(t *testing.T) (*acme.CA, *acme.Zone, *x509.CertPool) {
	t.Helper()
	zone := acme.NewZone()
	ca, err := acme.NewCA(zone)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(ca.RootCert())
	return ca, zone, pool
}

func TestGetCapturesTLSPublicKey(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	addr, wantPub := startTLSServer(t, ca, zone, "svc.test",
		http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("hello"))
		}))

	b := New(pool, 0)
	b.Resolve("svc.test", addr)
	resp, err := b.Get(context.Background(), "svc.test", "/")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if resp.Status != 200 || string(resp.Body) != "hello" {
		t.Errorf("resp = %d %q", resp.Status, resp.Body)
	}
	if string(resp.TLSPublicKeyDER) != string(wantPub) {
		t.Error("captured TLS key differs from server key")
	}
	connKey, err := b.ConnectionPublicKey("svc.test")
	if err != nil {
		t.Fatal(err)
	}
	if string(connKey) != string(wantPub) {
		t.Error("connection context key differs")
	}
}

func TestUnresolvableDomain(t *testing.T) {
	_, _, pool := newTestCA(t)
	b := New(pool, 0)
	if _, err := b.Get(context.Background(), "nowhere.test", "/"); !errors.Is(err, ErrUnresolvable) {
		t.Errorf("err = %v, want ErrUnresolvable", err)
	}
}

func TestConnectionContextBeforeConnect(t *testing.T) {
	_, _, pool := newTestCA(t)
	b := New(pool, 0)
	if _, err := b.ConnectionPublicKey("svc.test"); !errors.Is(err, ErrNoConnection) {
		t.Errorf("err = %v, want ErrNoConnection", err)
	}
}

func TestCertificateDomainMismatchRejected(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	// Certificate for one domain, browser asks for another: the TLS
	// handshake must fail, as in a real browser.
	addr, _ := startTLSServer(t, ca, zone, "real.test", http.NotFoundHandler())
	b := New(pool, 0)
	b.Resolve("victim.test", addr)
	if _, err := b.Get(context.Background(), "victim.test", "/"); err == nil {
		t.Error("Get succeeded with mismatched certificate")
	}
}

func TestUntrustedCARejected(t *testing.T) {
	ca, zone, _ := newTestCA(t)
	addr, _ := startTLSServer(t, ca, zone, "svc.test", http.NotFoundHandler())
	// Browser with an empty trust store.
	b := New(x509.NewCertPool(), 0)
	b.Resolve("svc.test", addr)
	if _, err := b.Get(context.Background(), "svc.test", "/"); err == nil {
		t.Error("Get succeeded with untrusted CA")
	}
}

func TestRedirectUpdatesConnectionContext(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	addrA, pubA := startTLSServer(t, ca, zone, "svc.test", http.NotFoundHandler())
	addrB, pubB := startTLSServer(t, ca, zone, "svc.test", http.NotFoundHandler())
	if string(pubA) == string(pubB) {
		t.Fatal("servers share a key")
	}
	b := New(pool, 0)
	b.Resolve("svc.test", addrA)
	if _, err := b.Get(context.Background(), "svc.test", "/"); err != nil {
		t.Fatal(err)
	}
	// Malicious DNS repoints the domain; the connection context follows.
	b.Resolve("svc.test", addrB)
	if _, err := b.Get(context.Background(), "svc.test", "/"); err != nil {
		t.Fatal(err)
	}
	got, err := b.ConnectionPublicKey("svc.test")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(pubB) {
		t.Error("connection context not updated after redirect")
	}
}

// TestGetHonoursCancellation: a dead or dying context aborts the
// navigation — including during the simulated network latency — with a
// wrapped context error, and no connection context is recorded.
func TestGetHonoursCancellation(t *testing.T) {
	ca, zone, pool := newTestCA(t)
	addr, _ := startTLSServer(t, ca, zone, "slow.example.org",
		http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("late"))
		}))
	b := New(pool, 5*time.Second) // latency far beyond the test budget
	b.Resolve("slow.example.org", addr)

	// Already-dead context: refused before anything happens.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Get(dead, "slow.example.org", "/"); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead ctx: %v, want context.Canceled", err)
	}

	// Cancellation mid-latency: returns promptly, not after the RTT.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := b.Get(ctx, "slow.example.org", "/")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-latency cancel: %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation waited out the simulated latency (%v)", elapsed)
	}
	if _, err := b.ConnectionPublicKey("slow.example.org"); !errors.Is(err, ErrNoConnection) {
		t.Fatalf("aborted navigation recorded a connection context: %v", err)
	}
}
