package gateway

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"io"
	"math/big"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"revelio/attestation"
	"revelio/attestation/snp"
	"revelio/internal/attest"
	"revelio/internal/fleet"
	"revelio/internal/measure"
	"revelio/internal/ratls"
	"revelio/internal/sev"
)

const testDomain = "gw.test.example.org"

// testProvider is the gateway tests' attestation provider, in the shape
// of the fleet's SEV-SNP provider without the hardware: a bundle's
// "report" is the bare launch measurement it attests, policy revokes per
// measurement, and every policy change bumps a monotone revision. Issue
// attests the provider's own golden measurement; a testEnclave attests
// any other.
type testProvider struct {
	golden measure.Measurement
	rev    atomic.Uint64
	// verified counts the bundles VerifyEvidence judged.
	verified atomic.Int64
	mu       sync.Mutex
	revoked  map[measure.Measurement]bool
}

func newTestProvider(seed string) *testProvider {
	p := &testProvider{revoked: make(map[measure.Measurement]bool)}
	copy(p.golden[:], seed)
	return p
}

func (p *testProvider) PolicyRevision() uint64 { return p.rev.Load() }

// Revoke distrusts m and bumps the policy revision, as a registry
// revocation followed by InvalidatePolicy does.
func (p *testProvider) Revoke(m measure.Measurement) {
	p.mu.Lock()
	p.revoked[m] = true
	p.mu.Unlock()
	p.rev.Add(1)
}

func (p *testProvider) Issue(ctx context.Context, payload []byte) (*attest.Bundle, error) {
	return testEnclave(p.golden).Issue(ctx, payload)
}

func (p *testProvider) VerifyEvidence(_ context.Context, b *attest.Bundle) (*attest.Result, error) {
	var m measure.Measurement
	if len(b.ReportRaw) != len(m) {
		return nil, fmt.Errorf("%w: %d-byte test report", attestation.ErrEvidenceInvalid, len(b.ReportRaw))
	}
	copy(m[:], b.ReportRaw)
	p.verified.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.revoked[m] {
		return nil, fmt.Errorf("%w: %s", attestation.ErrRevoked, m)
	}
	return &attest.Result{Report: &sev.Report{Measurement: m}}, nil
}

// testEnclave issues test-provider bundles for one measurement.
type testEnclave measure.Measurement

func (e testEnclave) Issue(_ context.Context, payload []byte) (*attest.Bundle, error) {
	return &attest.Bundle{ReportRaw: e[:], Payload: payload}, nil
}

// startUpstream opens an RA-TLS server whose certificate evidence comes
// from issuer, serving handler.
func startUpstream(t *testing.T, issuer ratls.Issuer, handler http.Handler) (addr string) {
	t.Helper()
	return startUpstreamWith(t, issuer, handler, nil)
}

// startUpstreamWith is startUpstream with tune applied to the server
// before it serves (nil: none), for tests that watch or steer the node's
// connections through ConnState.
func startUpstreamWith(t *testing.T, issuer ratls.Issuer, handler http.Handler, tune func(*http.Server)) (addr string) {
	t.Helper()
	cert, err := ratls.CreateProviderCertificate(context.Background(), issuer, testDomain)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	if tune != nil {
		tune(srv)
	}
	go func() { _ = srv.Serve(tls.NewListener(ln, &tls.Config{Certificates: []tls.Certificate{cert}})) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

// plainUpstream opens a TLS server with an ordinary self-signed
// certificate — no attestation evidence at all.
func plainUpstream(t *testing.T, handler http.Handler) (addr string) {
	t.Helper()
	cert := selfSigned(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(tls.NewListener(ln, &tls.Config{Certificates: []tls.Certificate{cert}})) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

func selfSigned(t *testing.T) tls.Certificate {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: testDomain},
		DNSNames:     []string{testDomain},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}
}

func idHandler(id string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, id)
	})
}

func serving(addr string) fleet.Endpoint {
	return fleet.Endpoint{ControlURL: "ctl-" + addr, UpstreamAddr: addr}
}

// startGateway builds and starts a gateway over the view, returning a
// client that trusts whatever it serves.
func startGateway(t *testing.T, src Source, v ratls.Verifier) (*Gateway, *http.Client) {
	t.Helper()
	cert := selfSigned(t)
	g, err := New(Config{
		Source:         src,
		Verifier:       v,
		GetCertificate: func() (*tls.Certificate, error) { return &cert, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	client := &http.Client{
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{InsecureSkipVerify: true}, //nolint:gosec // test client
		},
		Timeout: 10 * time.Second,
	}
	t.Cleanup(client.CloseIdleConnections)
	return g, client
}

func get(t *testing.T, client *http.Client, url string) (string, int) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.StatusCode
}

// TestGatewayBalancesAcrossUpstreams: requests spread over every
// serving node.
func TestGatewayBalancesAcrossUpstreams(t *testing.T) {
	provider := newTestProvider("balance")

	var eps []fleet.Endpoint
	ids := []string{"a", "b", "c"}
	for _, id := range ids {
		eps = append(eps, serving(startUpstream(t, provider, idHandler(id))))
	}

	view := NewView(testDomain, eps...)
	g, client := startGateway(t, view, provider)

	seen := map[string]int{}
	for i := 0; i < 60; i++ {
		body, status := get(t, client, "https://"+g.Addr()+"/")
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
		seen[body]++
	}
	for _, id := range ids {
		if seen[id] == 0 {
			t.Errorf("upstream %q received no traffic: %v", id, seen)
		}
	}
	if s := g.Stats(); s.Requests != 60 || len(s.Ejected) != 0 {
		t.Errorf("stats = %+v, want 60 requests, no ejections", s)
	}
}

// TestGatewayProviderRevocationIsolation: revoking one golden
// measurement ejects only the node running it, and clients never see a
// failure because requests retry onto the node whose measurement still
// verifies.
func TestGatewayProviderRevocationIsolation(t *testing.T) {
	provider := newTestProvider("isolation")
	revokedMeas := testMeas(0xEE)
	revokedAddr := startUpstream(t, testEnclave(revokedMeas), idHandler("revoked"))
	keptAddr := startUpstream(t, provider, idHandler("kept"))
	view := NewView(testDomain, serving(revokedAddr), serving(keptAddr))
	g, client := startGateway(t, view, provider)

	// Healthy estate: both nodes serve, and both hold warm connections.
	seen := map[string]int{}
	for i := 0; i < 20; i++ {
		body, _ := get(t, client, "https://"+g.Addr()+"/")
		seen[body]++
	}
	if seen["revoked"] == 0 || seen["kept"] == 0 {
		t.Fatalf("expected both nodes to serve, got %v", seen)
	}

	// Revoke one node's measurement. The policy bump flushes the
	// gateway's warm pools, so the very next handshake against that node
	// fails closed and ejects it — while the other node keeps serving
	// every request.
	provider.Revoke(revokedMeas)

	seen = map[string]int{}
	for i := 0; i < 20; i++ {
		body, status := get(t, client, "https://"+g.Addr()+"/")
		if status != http.StatusOK {
			t.Fatalf("request %d after revocation: status %d", i, status)
		}
		seen[body]++
	}
	if seen["revoked"] != 0 {
		t.Errorf("revoked node still served %d requests", seen["revoked"])
	}
	if seen["kept"] != 20 {
		t.Errorf("healthy node served %d/20", seen["kept"])
	}
	s := g.Stats()
	if len(s.Ejected) != 1 || s.Ejected[0] != revokedAddr {
		t.Errorf("ejected = %v, want [%s]", s.Ejected, revokedAddr)
	}
	if s.PolicyFlushes == 0 {
		t.Error("policy revision bump did not flush the upstream pools")
	}

	// The revocation is per measurement: the other node's evidence still
	// verifies.
	ev, err := provider.Issue(context.Background(), []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := provider.VerifyEvidence(context.Background(), ev); err != nil {
		t.Errorf("healthy node's evidence stopped verifying: %v", err)
	}
}

// TestGatewayPolicyEpochIsVerifierRevision: the gateway's policy epoch
// is the verifier's policy revision. A bump flushes the pools once at
// the next request, however many bumps land between two requests, and a
// verifier without a revision never flushes.
func TestGatewayPolicyEpochIsVerifierRevision(t *testing.T) {
	addr := startUpstream(t, newTestProvider("epoch"), idHandler("a"))
	// No probe tick: requests are the only observers, so the bumps below
	// land between two observations exactly as written.
	newGateway := func(t *testing.T, v ratls.Verifier) *Gateway {
		t.Helper()
		g, err := New(Config{
			Source:     NewView(testDomain, serving(addr)),
			Verifier:   v,
			Resilience: Resilience{ProbeInterval: time.Hour},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Close)
		return g
	}

	t.Run("one bump", func(t *testing.T) {
		provider := newTestProvider("epoch")
		g := newGateway(t, provider)
		proxyOnce(t, g)
		if n := g.flushes.Load(); n != 0 {
			t.Fatalf("%d flushes before any bump", n)
		}
		provider.rev.Add(1)
		proxyOnce(t, g)
		proxyOnce(t, g)
		if n := g.flushes.Load(); n != 1 {
			t.Errorf("one bump: %d flushes, want 1", n)
		}
		if s := g.Stats(); s.PolicyEpoch != 1 || s.PolicyFlushes != 1 {
			t.Errorf("PolicyEpoch = %d, PolicyFlushes = %d; want 1 and 1", s.PolicyEpoch, s.PolicyFlushes)
		}
	})

	t.Run("five bumps between two requests", func(t *testing.T) {
		provider := newTestProvider("epoch")
		g := newGateway(t, provider)
		proxyOnce(t, g)
		for i := 0; i < 5; i++ {
			provider.rev.Add(1)
		}
		proxyOnce(t, g)
		if n := g.flushes.Load(); n != 1 {
			t.Errorf("five bumps between two requests: %d flushes, want 1", n)
		}
		if s := g.Stats(); s.PolicyEpoch != 5 {
			t.Errorf("PolicyEpoch = %d, want 5", s.PolicyEpoch)
		}
	})
}

// TestGatewayRejectsUnattestedUpstream: a node serving a plain TLS
// certificate (no evidence) is never proxied to — fail closed, with the
// request retried onto an attested node.
func TestGatewayRejectsUnattestedUpstream(t *testing.T) {
	provider := newTestProvider("unattested")

	goodAddr := startUpstream(t, provider, idHandler("good"))
	badAddr := plainUpstream(t, idHandler("bad"))
	view := NewView(testDomain, serving(goodAddr), serving(badAddr))
	g, client := startGateway(t, view, provider)

	for i := 0; i < 10; i++ {
		body, status := get(t, client, "https://"+g.Addr()+"/")
		if status != http.StatusOK || body != "good" {
			t.Fatalf("request %d: status=%d body=%q", i, status, body)
		}
	}
	if s := g.Stats(); len(s.Ejected) != 1 || s.Ejected[0] != badAddr {
		t.Errorf("ejected = %v, want [%s]", s.Ejected, badAddr)
	}
}

// TestGatewayEjectsUpstreamOfUnknownChip: a node whose RA-TLS evidence
// names a chip the KDS does not know (404) offers invalid evidence, not
// a KDS outage: it is ejected like any other attestation reject, and its
// requests are retried onto the attested node.
func TestGatewayEjectsUpstreamOfUnknownChip(t *testing.T) {
	trusted, err := snp.NewSimulator([]byte("gw-trusted"))
	if err != nil {
		t.Fatal(err)
	}
	unknown, err := snp.NewSimulator([]byte("gw-unknown"))
	if err != nil {
		t.Fatal(err)
	}
	kdsServer := httptest.NewServer(trusted.Handler())
	t.Cleanup(kdsServer.Close)
	image := []byte("gateway image")
	goodSigner, golden, err := trusted.LaunchGuest([]byte("good"), 1, image)
	if err != nil {
		t.Fatal(err)
	}
	badSigner, _, err := unknown.LaunchGuest([]byte("bad"), 1, image)
	if err != nil {
		t.Fatal(err)
	}
	verifier := snp.NewVerifier(snp.NewKDSClient(kdsServer.URL, nil), snp.NewStaticGolden(golden))

	goodAddr := startUpstream(t, snp.NewNodeProvider(goodSigner, nil), idHandler("good"))
	badAddr := startUpstream(t, snp.NewNodeProvider(badSigner, nil), idHandler("bad"))
	g, client := startGateway(t, NewView(testDomain, serving(goodAddr), serving(badAddr)), verifier)

	for i := 0; i < 10; i++ {
		body, status := get(t, client, "https://"+g.Addr()+"/")
		if status != http.StatusOK || body != "good" {
			t.Fatalf("request %d: status=%d body=%q", i, status, body)
		}
	}
	if s := g.Stats(); len(s.Ejected) != 1 || s.Ejected[0] != badAddr {
		t.Errorf("ejected = %v, want [%s]", s.Ejected, badAddr)
	}
}

// TestGatewayDrainZeroFailures: concurrent clients hammer the gateway
// while an endpoint leaves the view; View.Set's drain means no admitted
// request ever lands on a closed server, so the run is failure-free.
func TestGatewayDrainZeroFailures(t *testing.T) {
	provider := newTestProvider("drain")

	cert, err := ratls.CreateProviderCertificate(context.Background(), provider, testDomain)
	if err != nil {
		t.Fatal(err)
	}
	newUpstream := func(id string) (fleet.Endpoint, *http.Server) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: idHandler(id), ReadHeaderTimeout: 5 * time.Second}
		go func() { _ = srv.Serve(tls.NewListener(ln, &tls.Config{Certificates: []tls.Certificate{cert}})) }()
		return serving(ln.Addr().String()), srv
	}
	epA, srvA := newUpstream("a")
	epB, srvB := newUpstream("b")
	defer func() { _ = srvA.Close() }()

	view := NewView(testDomain, epA, epB)
	g, client := startGateway(t, view, provider)

	var failures atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get("https://" + g.Addr() + "/")
				if err != nil {
					failures.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	// Drain B out of the view, then close its server — the Set call
	// returns only once every admitted request has released.
	view.Set(epA)
	_ = srvB.Close()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d failed requests through the gateway during drain", n)
	}
}

// TestGatewayNoUpstreams: an empty view answers 502 rather than
// hanging, and the error names the condition.
func TestGatewayNoUpstreams(t *testing.T) {
	provider := newTestProvider("empty")
	view := NewView(testDomain)
	g, client := startGateway(t, view, provider)
	body, status := get(t, client, "https://"+g.Addr()+"/")
	if status != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", status)
	}
	if !strings.Contains(body, ErrNoUpstreams.Error()) {
		t.Fatalf("body = %q, want it to name %q", body, ErrNoUpstreams.Error())
	}
}

// TestGatewayConfigValidation: missing pieces are refused up front.
func TestGatewayConfigValidation(t *testing.T) {
	provider := newTestProvider("cfg")
	if _, err := New(Config{Verifier: provider}); err == nil {
		t.Error("New without source succeeded")
	}
	if _, err := New(Config{Source: NewView(testDomain)}); err == nil {
		t.Error("New without verifier succeeded")
	}
	g, err := New(Config{Source: NewView(testDomain), Verifier: provider})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.Start(); err == nil {
		t.Error("Start without GetCertificate succeeded")
	}
}
