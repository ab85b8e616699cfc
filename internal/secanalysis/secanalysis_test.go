package secanalysis

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"revelio/internal/acme"
	"revelio/internal/blockdev"
	"revelio/internal/browser"
	"revelio/internal/certmgr"
	"revelio/internal/core"
	"revelio/internal/dmcrypt"
	"revelio/internal/imagebuild"
	"revelio/internal/netlab"
	"revelio/internal/sev"
	"revelio/internal/webext"
)

const domain = "svc.example.org"

// deploy builds and provisions a deployment for the given spec mutation.
func deploy(t *testing.T, mutate func(*imagebuild.Spec)) *core.Deployment {
	t.Helper()
	reg := imagebuild.NewRegistry()
	base := imagebuild.PublishUbuntuBase(reg)
	spec := imagebuild.CryptpadSpec(base)
	spec.PersistSize = 256 * 1024
	if mutate != nil {
		mutate(&spec)
	}
	d, err := core.New(core.Config{
		Spec:     spec,
		Registry: reg,
		Nodes:    1,
		Domain:   domain,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if _, err := d.ProvisionCertificates(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d.StartWeb(func(*core.Node) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("service"))
		})
	}); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEndUserDetectsMaliciousServiceSoftware is the occupancy-phase
// threat: the service provider ships a modified image. The whole pipeline
// works for them — their own SP node happily provisions it — but an
// end-user holding the *published* golden value is warned at first
// contact.
func TestEndUserDetectsMaliciousServiceSoftware(t *testing.T) {
	honest := deploy(t, nil)
	evil := deploy(t, func(s *imagebuild.Spec) {
		s.Version = "1.0.0-backdoored"
	})
	if honest.Golden == evil.Golden {
		t.Fatal("evil image has the honest measurement")
	}

	// The user knows the honest golden value (from an auditor) but is
	// directed at the evil deployment.
	b := browser.New(evil.CARootPool(), 0)
	b.Resolve(domain, evil.Nodes[0].WebAddr())
	ext := webext.New(b, evil.Verifier) // evil provider's KDS chain is authentic
	ext.RegisterSite(domain, honest.Golden)

	_, _, err := ext.Navigate(context.Background(), domain, "/")
	if !errors.Is(err, webext.ErrMeasurementMismatch) {
		t.Errorf("err = %v, want ErrMeasurementMismatch", err)
	}
}

// TestKillAndRedirectMidSession is the §5.3.2 redirect attack against a
// browser that keeps its attested connection alive: the session's
// navigations ride one pooled TLS connection, so the attacker — on the
// network path and in control of DNS — first resets that connection and
// then repoints the domain at a server of theirs holding a CA-valid
// certificate for it under another key. The browser has to dial again,
// and the extension's pin turns the new connection away in its
// handshake: the user is warned and the attacker's server never sees
// the request.
func TestKillAndRedirectMidSession(t *testing.T) {
	d := deploy(t, nil)
	path, err := netlab.NewRelay(context.Background(), d.Nodes[0].WebAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(path.Close)

	b := browser.New(d.CARootPool(), 0)
	t.Cleanup(b.Close)
	b.Resolve(domain, path.Addr())
	ext := webext.New(b, d.Verifier)
	ext.RegisterSite(domain, d.Golden)
	for i := 0; i < 3; i++ {
		if _, m, err := ext.Navigate(context.Background(), domain, "/"); err != nil || m.Attested != (i == 0) {
			t.Fatalf("navigation %d: err=%v metrics=%+v", i, err, m)
		}
	}
	if n := path.Accepted(); n != 1 {
		t.Fatalf("the session opened %d connections, want 1: there is no pooled connection to kill", n)
	}

	var phished atomic.Int64
	attacker := startValidTLSServer(t, d, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		phished.Add(1)
		_, _ = w.Write([]byte("phish"))
	}))
	path.Cut()
	b.Resolve(domain, attacker)

	if _, _, err := ext.Navigate(context.Background(), domain, "/account"); !errors.Is(err, webext.ErrConnectionHijacked) {
		t.Errorf("err = %v, want ErrConnectionHijacked", err)
	}
	if n := phished.Load(); n != 0 {
		t.Errorf("the attacker's server received %d requests, want 0", n)
	}

	// Control: the attacker's certificate is genuinely valid — a browser
	// without the extension loads the page.
	plain := browser.New(d.CARootPool(), 0)
	t.Cleanup(plain.Close)
	plain.Resolve(domain, attacker)
	if resp, err := plain.Get(context.Background(), domain, "/account"); err != nil || string(resp.Body) != "phish" {
		t.Errorf("plain browser: err=%v; the attack should succeed without the extension", err)
	}
}

// startValidTLSServer serves handler behind a fresh key and a
// certificate for the service's domain from the deployment's CA — what
// a provider who controls the domain's DNS can always obtain.
func startValidTLSServer(t *testing.T, d *core.Deployment, handler http.Handler) string {
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
	certDER, err := acme.NewClient(d.CA, d.Zone).ObtainCertificate(context.Background(), domain, csr)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tlsLn := tls.NewListener(ln, &tls.Config{
		Certificates: []tls.Certificate{{Certificate: [][]byte{certDER}, PrivateKey: key}},
	})
	server := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = server.Serve(tlsLn) }()
	t.Cleanup(func() { _ = server.Close() })
	return ln.Addr().String()
}

// TestDecommissioningLeavesNoPlaintext is the §3.2 decommissioning-phase
// threat: software that takes over the node after release scrapes the
// persistent storage. Everything sensitive must be ciphertext.
func TestDecommissioningLeavesNoPlaintext(t *testing.T) {
	d := deploy(t, nil)
	node := d.Nodes[0]
	secret := []byte("PATIENT-RECORD-SSN-123-45-6789")
	if err := node.VM.Persist().WriteAt(secret, 8192); err != nil {
		t.Fatal(err)
	}
	// Control: the guest itself reads the plaintext back fine.
	got := make([]byte, len(secret))
	if err := node.VM.Persist().ReadAt(got, 8192); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("test setup: secret not written")
	}

	// The node is released; the next tenant scrapes the entire raw disk.
	raw := make([]byte, node.Disk().Size())
	if err := node.Disk().ReadAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, secret) {
		t.Error("secret visible in raw disk bytes after decommissioning")
	}

	// The TLS private key lives on the same sealed volume; an attacker
	// without the measurement-derived sealing key cannot unlock it.
	persistPart, err := blockdev.NewLinear(node.Disk(),
		d.Image.Table.PersistStart, d.Image.Table.PersistLen)
	if err != nil {
		t.Fatal(err)
	}
	for _, guess := range [][]byte{
		[]byte(""), []byte("password"), bytes.Repeat([]byte{0}, 32),
	} {
		if _, err := dmcrypt.Open(persistPart, guess); !errors.Is(err, dmcrypt.ErrBadPassphrase) {
			t.Errorf("guess %q: err = %v, want ErrBadPassphrase", guess, err)
		}
	}
}

// TestMITMCorruptsEvidenceInFlight is the occupancy-phase MITM: an
// attacker between the SP node and a guest corrupts the attestation
// evidence. Validation must fail closed — never accept, never silently
// skip a node.
func TestMITMCorruptsEvidenceInFlight(t *testing.T) {
	reg := imagebuild.NewRegistry()
	base := imagebuild.PublishUbuntuBase(reg)
	spec := imagebuild.CryptpadSpec(base)
	spec.PersistSize = 256 * 1024
	d, err := core.New(core.Config{
		Spec: spec, Registry: reg, Nodes: 1, Domain: domain,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	// Rebuild an SP node whose HTTP path flips a byte in every response
	// body (the man in the middle).
	mitm := &http.Client{Transport: corruptingTransport{}}
	approved := map[string]sev.ChipID{d.Nodes[0].ControlURL(): d.Nodes[0].Chip}
	sp := certmgr.NewSPNode(d.Verifier, acme.NewClient(d.CA, d.Zone), domain, approved, mitm)
	if _, err := sp.Provision(context.Background(), []string{d.Nodes[0].ControlURL()}); err == nil {
		t.Fatal("provisioning succeeded through a corrupting MITM")
	}

	// Without the MITM the same SP configuration succeeds (control).
	honest := certmgr.NewSPNode(d.Verifier, acme.NewClient(d.CA, d.Zone), domain, approved, nil)
	if _, err := honest.Provision(context.Background(), []string{d.Nodes[0].ControlURL()}); err != nil {
		t.Fatalf("control provisioning failed: %v", err)
	}
}

// corruptingTransport flips a byte in every response body.
type corruptingTransport struct{}

func (corruptingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if len(body) > 10 {
		body[len(body)/2] ^= 0x01
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}
