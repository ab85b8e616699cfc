package acme

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"strings"
	"testing"
	"time"
)

// withRateLimit replaces the Let's Encrypt limit with a small one, so a
// test reaches it in a few issuances.
func withRateLimit(n int, window time.Duration) Option {
	return func(c *CA) { c.rateLimit, c.rateWindow = n, window }
}

func newCSR(t *testing.T, domain string) ([]byte, *ecdsa.PrivateKey) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	der, err := x509.CreateCertificateRequest(rand.Reader, &x509.CertificateRequest{
		Subject:  pkix.Name{CommonName: domain},
		DNSNames: []string{domain},
	}, key)
	if err != nil {
		t.Fatal(err)
	}
	return der, key
}

func TestObtainCertificateHappyPath(t *testing.T) {
	zone := NewZone()
	ca, err := NewCA(zone)
	if err != nil {
		t.Fatal(err)
	}
	csr, key := newCSR(t, "service.example.org")
	certDER, err := NewClient(ca, zone).ObtainCertificate(context.Background(), "service.example.org", csr)
	if err != nil {
		t.Fatalf("ObtainCertificate: %v", err)
	}
	cert, err := x509.ParseCertificate(certDER)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Subject.CommonName != "service.example.org" {
		t.Errorf("CN = %q", cert.Subject.CommonName)
	}
	// The issued cert binds the CSR's public key.
	pub, ok := cert.PublicKey.(*ecdsa.PublicKey)
	if !ok || !pub.Equal(&key.PublicKey) {
		t.Error("issued cert does not carry the CSR public key")
	}
	// And chains to the CA root.
	roots := x509.NewCertPool()
	roots.AddCert(ca.RootCert())
	if _, err := cert.Verify(x509.VerifyOptions{Roots: roots}); err != nil {
		t.Errorf("chain: %v", err)
	}
	// Challenge record cleaned up.
	if got := zone.LookupTXT("_acme-challenge.service.example.org"); len(got) != 0 {
		t.Errorf("challenge TXT left behind: %v", got)
	}
}

// TestIssuedCertificateCarriesCanonicalKeyEncoding: the browser hands the
// extension, and checks pins against, the server certificate's
// SubjectPublicKeyInfo as it stands; attested payloads and pins are
// x509.MarshalPKIXPublicKey of the key. For what this CA issues the two
// are the same bytes, whichever curve the CSR's key is on.
func TestIssuedCertificateCarriesCanonicalKeyEncoding(t *testing.T) {
	zone := NewZone()
	ca, err := NewCA(zone)
	if err != nil {
		t.Fatal(err)
	}
	for name, curve := range map[string]elliptic.Curve{"P-256": elliptic.P256(), "P-384": elliptic.P384()} {
		key, err := ecdsa.GenerateKey(curve, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		domain := "spki-" + strings.ToLower(name) + ".example.org"
		csr, err := x509.CreateCertificateRequest(rand.Reader, &x509.CertificateRequest{
			Subject:  pkix.Name{CommonName: domain},
			DNSNames: []string{domain},
		}, key)
		if err != nil {
			t.Fatal(err)
		}
		der, err := NewClient(ca, zone).ObtainCertificate(context.Background(), domain, csr)
		if err != nil {
			t.Fatal(err)
		}
		cert, err := x509.ParseCertificate(der)
		if err != nil {
			t.Fatal(err)
		}
		for what, c := range map[string]*x509.Certificate{"leaf": cert, "root": ca.RootCert()} {
			canonical, err := x509.MarshalPKIXPublicKey(c.PublicKey)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(c.RawSubjectPublicKeyInfo, canonical) {
				t.Errorf("%s %s: raw SubjectPublicKeyInfo\n %x is not MarshalPKIXPublicKey of the parsed key\n %x",
					name, what, c.RawSubjectPublicKeyInfo, canonical)
			}
		}
		if want, _ := x509.MarshalPKIXPublicKey(&key.PublicKey); !bytes.Equal(cert.RawSubjectPublicKeyInfo, want) {
			t.Errorf("%s: leaf does not carry the CSR's key", name)
		}
	}
}

func TestChallengeFailsWithoutDNSControl(t *testing.T) {
	zone := NewZone()
	ca, err := NewCA(zone)
	if err != nil {
		t.Fatal(err)
	}
	csr, _ := newCSR(t, "victim.example.org")
	order, err := ca.NewOrder("victim.example.org", csr)
	if err != nil {
		t.Fatal(err)
	}
	// The attacker never publishes the TXT record (no DNS credentials).
	if _, err := ca.Finalize(order); !errors.Is(err, ErrChallengeFailed) {
		t.Errorf("err = %v, want ErrChallengeFailed", err)
	}
	// Publishing a wrong value also fails.
	zone.SetTXT("_acme-challenge.victim.example.org", "wrong")
	if _, err := ca.Finalize(order); !errors.Is(err, ErrChallengeFailed) {
		t.Errorf("wrong TXT: err = %v, want ErrChallengeFailed", err)
	}
}

func TestCSRValidation(t *testing.T) {
	zone := NewZone()
	ca, err := NewCA(zone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.NewOrder("a.example.org", []byte("garbage")); !errors.Is(err, ErrBadCSR) {
		t.Errorf("garbage CSR: err = %v, want ErrBadCSR", err)
	}
	// Domain mismatch between order and CSR.
	csr, _ := newCSR(t, "b.example.org")
	if _, err := ca.NewOrder("a.example.org", csr); !errors.Is(err, ErrBadCSR) {
		t.Errorf("domain mismatch: err = %v, want ErrBadCSR", err)
	}
}

func TestRateLimit(t *testing.T) {
	zone := NewZone()
	clock := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	ca, err := NewCA(zone,
		withRateLimit(3, 24*time.Hour),
		WithClock(func() time.Time { return clock }))
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(ca, zone)
	csr, _ := newCSR(t, "busy.example.org")
	for i := 0; i < 3; i++ {
		if _, err := client.ObtainCertificate(context.Background(), "busy.example.org", csr); err != nil {
			t.Fatalf("issuance %d: %v", i, err)
		}
	}
	if _, err := client.ObtainCertificate(context.Background(), "busy.example.org", csr); !errors.Is(err, ErrRateLimited) {
		t.Errorf("4th issuance: err = %v, want ErrRateLimited", err)
	}
	// Another domain is unaffected (per-domain limit).
	otherCSR, _ := newCSR(t, "calm.example.org")
	if _, err := client.ObtainCertificate(context.Background(), "calm.example.org", otherCSR); err != nil {
		t.Errorf("other domain: %v", err)
	}
	// The window slides: a day later issuance works again.
	clock = clock.Add(25 * time.Hour)
	if _, err := client.ObtainCertificate(context.Background(), "busy.example.org", csr); err != nil {
		t.Errorf("after window: %v", err)
	}
}

// TestSharedCertificateAvoidsRateLimit demonstrates §3.4.6: N nodes
// sharing one certificate consume one issuance; per-node certificates
// consume N and trip the limit.
func TestSharedCertificateAvoidsRateLimit(t *testing.T) {
	zone := NewZone()
	ca, err := NewCA(zone, withRateLimit(5, 24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(ca, zone)
	const nodes = 20

	// Shared scheme: one CSR, one cert, distributed to all nodes.
	sharedCSR, _ := newCSR(t, "svc.example.org")
	if _, err := client.ObtainCertificate(context.Background(), "svc.example.org", sharedCSR); err != nil {
		t.Fatalf("shared issuance: %v", err)
	}

	// Per-node scheme: each node requests its own — hits the limit.
	var limited bool
	for i := 0; i < nodes; i++ {
		csr, _ := newCSR(t, "pernode.example.org")
		if _, err := client.ObtainCertificate(context.Background(), "pernode.example.org", csr); err != nil {
			if !errors.Is(err, ErrRateLimited) {
				t.Fatalf("unexpected error: %v", err)
			}
			limited = true
			break
		}
	}
	if !limited {
		t.Error("per-node issuance never hit the rate limit")
	}
}
