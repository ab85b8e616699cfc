package webext

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
	"testing"
	"time"

	"revelio/internal/acme"
	"revelio/internal/browser"
	"revelio/internal/core"
	"revelio/internal/imagebuild"
	"revelio/internal/measure"

	"revelio/attestation"
)

const domain = "pad.example.org"

func newDeployment(t *testing.T, nodes int) *core.Deployment {
	t.Helper()
	reg := imagebuild.NewRegistry()
	base := imagebuild.PublishUbuntuBase(reg)
	spec := imagebuild.CryptpadSpec(base)
	spec.PersistSize = 256 * 1024
	d, err := core.New(core.Config{
		Spec:     spec,
		Registry: reg,
		Nodes:    nodes,
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
			_, _ = w.Write([]byte("cryptpad"))
		})
	}); err != nil {
		t.Fatal(err)
	}
	return d
}

func newClientSide(t *testing.T, d *core.Deployment, nodeIdx int) (*browser.Browser, *Extension) {
	t.Helper()
	b := browser.New(d.CARootPool(), 0)
	b.Resolve(domain, d.Nodes[nodeIdx].WebAddr())
	ext := New(b, d.Verifier)
	return b, ext
}

func TestNavigateWithAttestation(t *testing.T) {
	d := newDeployment(t, 1)
	_, ext := newClientSide(t, d, 0)
	ext.RegisterSite(domain, d.Golden)

	resp, metrics, err := ext.Navigate(context.Background(), domain, "/")
	if err != nil {
		t.Fatalf("Navigate: %v", err)
	}
	if string(resp.Body) != "cryptpad" {
		t.Errorf("body = %q", resp.Body)
	}
	if !metrics.Attested || metrics.AttestationTime <= 0 {
		t.Errorf("first navigation did not attest: %+v", metrics)
	}

	// Warm session: no re-attestation, but connection still validated.
	_, metrics2, err := ext.Navigate(context.Background(), domain, "/doc")
	if err != nil {
		t.Fatal(err)
	}
	if metrics2.Attested {
		t.Error("second navigation re-attested")
	}
	if metrics2.ConnValidation < 0 {
		t.Error("missing connection validation")
	}
}

func TestNavigateUnregisteredSite(t *testing.T) {
	d := newDeployment(t, 1)
	_, ext := newClientSide(t, d, 0)
	if _, _, err := ext.Navigate(context.Background(), domain, "/"); !errors.Is(err, ErrSiteNotRegistered) {
		t.Errorf("err = %v, want ErrSiteNotRegistered", err)
	}
}

func TestNavigateWrongGolden(t *testing.T) {
	d := newDeployment(t, 1)
	_, ext := newClientSide(t, d, 0)
	var wrong measure.Measurement
	wrong[0] = 0xAA
	ext.RegisterSite(domain, wrong)
	_, _, err := ext.Navigate(context.Background(), domain, "/")
	if !errors.Is(err, ErrMeasurementMismatch) && !errors.Is(err, ErrAttestationFailed) {
		t.Errorf("err = %v, want measurement/attestation failure", err)
	}
}

func TestDiscoverFindsRevelioSite(t *testing.T) {
	d := newDeployment(t, 1)
	_, ext := newClientSide(t, d, 0)
	m, err := ext.Discover(context.Background(), domain)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if m != d.Golden {
		t.Error("discovered measurement differs from golden")
	}
}

func TestDiscoverNonRevelioSite(t *testing.T) {
	d := newDeployment(t, 1)
	b, ext := newClientSide(t, d, 0)

	// A plain HTTPS site with a valid cert but no attestation endpoint.
	plainAddr := startPlainTLS(t, d)
	b.Resolve("plain.example.org", plainAddr)
	if _, err := ext.Discover(context.Background(), "plain.example.org"); !errors.Is(err, ErrNoAttestation) {
		t.Errorf("err = %v, want ErrNoAttestation", err)
	}
}

// startPlainTLS brings up a non-Revelio HTTPS site under the same CA.
func startPlainTLS(t *testing.T, d *core.Deployment) string {
	t.Helper()
	return startTLSSite(t, d, "plain.example.org", http.NotFoundHandler())
}

// startTLSSite serves handler for name under a fresh key and a
// certificate the deployment's CA issued for it — which anyone who
// controls the name's DNS can obtain, an attacker included.
func startTLSSite(t *testing.T, d *core.Deployment, name string, handler http.Handler) string {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := x509.CreateCertificateRequest(rand.Reader, &x509.CertificateRequest{
		Subject:  pkix.Name{CommonName: name},
		DNSNames: []string{name},
	}, key)
	if err != nil {
		t.Fatal(err)
	}
	certDER, err := acme.NewClient(d.CA, d.Zone).ObtainCertificate(context.Background(), name, csr)
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

// TestRedirectAttackDetected is the §5.3.2 attack: after attestation, a
// malicious service provider (who controls DNS and can obtain fresh
// CA-valid certificates) redirects the domain to a non-Revelio server.
// The browser alone accepts it — the certificate is valid — but the
// extension's per-request connection validation catches the key change.
func TestRedirectAttackDetected(t *testing.T) {
	d := newDeployment(t, 1)
	b, ext := newClientSide(t, d, 0)
	ext.RegisterSite(domain, d.Golden)

	if _, _, err := ext.Navigate(context.Background(), domain, "/"); err != nil {
		t.Fatalf("initial navigation: %v", err)
	}

	// The attacker stands up their own server with a *valid* certificate
	// for the same domain (they control DNS, so they pass DNS-01).
	attackerKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := x509.CreateCertificateRequest(rand.Reader, &x509.CertificateRequest{
		Subject:  pkix.Name{CommonName: domain},
		DNSNames: []string{domain},
	}, attackerKey)
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
		Certificates: []tls.Certificate{{Certificate: [][]byte{certDER}, PrivateKey: attackerKey}},
	})
	attacker := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("phish"))
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = attacker.Serve(tlsLn) }()
	t.Cleanup(func() { _ = attacker.Close() })

	// DNS redirect.
	b.Resolve(domain, ln.Addr().String())

	// A plain browser would happily load the phishing page; the
	// extension must refuse.
	if _, _, err := ext.Navigate(context.Background(), domain, "/login"); !errors.Is(err, ErrConnectionHijacked) {
		t.Errorf("err = %v, want ErrConnectionHijacked", err)
	}
}

func TestResetSessionReattests(t *testing.T) {
	d := newDeployment(t, 1)
	_, ext := newClientSide(t, d, 0)
	ext.RegisterSite(domain, d.Golden)

	if _, m, err := ext.Navigate(context.Background(), domain, "/"); err != nil || !m.Attested {
		t.Fatalf("first: %v %+v", err, m)
	}
	ext.ResetSession()
	if _, m, err := ext.Navigate(context.Background(), domain, "/"); err != nil || !m.Attested {
		t.Errorf("after reset: err=%v attested=%v", err, m.Attested)
	}
}

func TestMultiNodeAllAttestable(t *testing.T) {
	d := newDeployment(t, 3)
	for i := range d.Nodes {
		b := browser.New(d.CARootPool(), 0)
		b.Resolve(domain, d.Nodes[i].WebAddr())
		ext := New(b, d.Verifier)
		ext.RegisterSite(domain, d.Golden)
		if _, m, err := ext.Navigate(context.Background(), domain, "/"); err != nil || !m.Attested {
			t.Errorf("node %d: err=%v metrics=%+v", i, err, m)
		}
	}
}

// TestSessionsPrepareEachVCEKKeyOnce: every new session re-attests with a
// report nobody has seen, so each pays a report signature check — but
// against a key whose tables the verifier built when it proved that VCEK's
// chain, not again. However many sessions a verifier serves, it prepares as
// many keys as there are VCEKs.
func TestSessionsPrepareEachVCEKKeyOnce(t *testing.T) {
	d := newDeployment(t, 2)
	base := d.Verifier.Stats()
	const sessions = 6
	for i := 0; i < sessions; i++ {
		_, ext := newClientSide(t, d, i%len(d.Nodes))
		ext.RegisterSite(domain, d.Golden)
		if _, m, err := ext.Navigate(context.Background(), domain, "/"); err != nil || !m.Attested {
			t.Fatalf("session %d: err=%v metrics=%+v", i, err, m)
		}
	}
	got := d.Verifier.Stats().Sub(base)
	if got.ReportsVerified != sessions || got.KeysPrepared != 0 || got.ChainHits != sessions {
		t.Errorf("%d sessions over %d provisioned nodes cost %+v: want a verification and a chain hit each, and no key prepared", sessions, len(d.Nodes), got)
	}
	if total := d.Verifier.Stats().KeysPrepared; total != uint64(len(d.Nodes)) {
		t.Errorf("verifier prepared %d keys for %d VCEKs", total, len(d.Nodes))
	}
}

// §5.3.2: after a flagged failure, the user may explicitly decide to
// proceed — the override is honored for the session and cleared on reset.
func TestUserOverrideProceeds(t *testing.T) {
	d := newDeployment(t, 1)
	_, ext := newClientSide(t, d, 0)
	var wrong measure.Measurement
	wrong[0] = 0xCC
	ext.RegisterSite(domain, wrong)

	if _, _, err := ext.Navigate(context.Background(), domain, "/"); err == nil {
		t.Fatal("mismatched site loaded without override")
	}
	if err := ext.Override(domain); err != nil {
		t.Fatal(err)
	}
	resp, m, err := ext.Navigate(context.Background(), domain, "/")
	if err != nil {
		t.Fatalf("overridden navigation: %v", err)
	}
	if !m.Overridden || m.Attested {
		t.Errorf("metrics = %+v, want overridden and not attested", m)
	}
	if string(resp.Body) != "cryptpad" {
		t.Errorf("body = %q", resp.Body)
	}
	// The decision is per session.
	ext.ResetSession()
	if _, _, err := ext.Navigate(context.Background(), domain, "/"); err == nil {
		t.Error("override survived session reset")
	}
	if err := ext.Override("unregistered.org"); !errors.Is(err, ErrSiteNotRegistered) {
		t.Errorf("override unregistered: err = %v", err)
	}
}

func TestSiteExportImport(t *testing.T) {
	d := newDeployment(t, 1)
	_, ext := newClientSide(t, d, 0)
	ext.RegisterSite(domain, d.Golden)
	ext.RegisterSite("other.example.org", d.Golden)

	data, err := ext.ExportSites()
	if err != nil {
		t.Fatal(err)
	}

	// A fresh extension (new browser profile) imports the config and can
	// attest immediately.
	b2, ext2 := newClientSide(t, d, 0)
	_ = b2
	if err := ext2.ImportSites(data); err != nil {
		t.Fatal(err)
	}
	if _, m, err := ext2.Navigate(context.Background(), domain, "/"); err != nil || !m.Attested {
		t.Errorf("imported site: err=%v metrics=%+v", err, m)
	}

	// Export is deterministic (sorted).
	data2, err := ext2.ExportSites()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("export not deterministic across instances")
	}

	if err := ext2.ImportSites([]byte("junk")); err == nil {
		t.Error("junk import accepted")
	}
	if err := ext2.ImportSites([]byte(`[{"domain":"x","golden":"zz"}]`)); err == nil {
		t.Error("bad golden hex accepted")
	}
}

// TestReplayedBundleRejected: an attacker who recorded a legitimate
// attestation bundle (e.g. from an earlier boot) and serves it verbatim
// fails the extension's freshness challenge — the recorded REPORT_DATA
// cannot bind the extension's fresh nonce.
func TestReplayedBundleRejected(t *testing.T) {
	d := newDeployment(t, 1)
	b, ext := newClientSide(t, d, 0)
	ext.RegisterSite(domain, d.Golden)

	// Record the nonce-less bundle an honest node serves.
	recorded, err := b.Get(context.Background(), domain, WellKnownPath)
	if err != nil || recorded.Status != 200 {
		t.Fatalf("record bundle: %v (%d)", err, recorded.Status)
	}

	// The attacker's server replays the recorded bundle for every
	// request, nonce or not — behind a CA-valid certificate obtained for
	// the same domain (attacker controls DNS).
	attackerKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := x509.CreateCertificateRequest(rand.Reader, &x509.CertificateRequest{
		Subject:  pkix.Name{CommonName: domain},
		DNSNames: []string{domain},
	}, attackerKey)
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
		Certificates: []tls.Certificate{{Certificate: [][]byte{certDER}, PrivateKey: attackerKey}},
	})
	replayer := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write(recorded.Body)
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = replayer.Serve(tlsLn) }()
	t.Cleanup(func() { _ = replayer.Close() })

	b.Resolve(domain, ln.Addr().String())
	_, _, err = ext.Navigate(context.Background(), domain, "/")
	if !errors.Is(err, ErrAttestationFailed) {
		t.Errorf("err = %v, want ErrAttestationFailed (replay must not bind fresh nonce)", err)
	}
}

// TestErrorsMapOntoAttestationTaxonomy: the extension's user-facing
// failure modes are errors.Is-able against the SDK's attestation
// sentinels, so one branch handles verdicts from any layer.
func TestErrorsMapOntoAttestationTaxonomy(t *testing.T) {
	if !errors.Is(ErrMeasurementMismatch, attestation.ErrUntrustedMeasurement) {
		t.Error("ErrMeasurementMismatch is not an attestation.ErrUntrustedMeasurement")
	}
	if !errors.Is(ErrMeasurementMismatch, attestation.ErrPolicyRejected) {
		t.Error("ErrMeasurementMismatch is not an attestation.ErrPolicyRejected")
	}
	if !errors.Is(ErrConnectionHijacked, attestation.ErrBindingMismatch) {
		t.Error("ErrConnectionHijacked is not an attestation.ErrBindingMismatch")
	}
	if !errors.Is(ErrConnectionHijacked, attestation.ErrEvidenceInvalid) {
		t.Error("ErrConnectionHijacked is not an attestation.ErrEvidenceInvalid")
	}
}
