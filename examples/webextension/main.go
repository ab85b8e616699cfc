// Web-extension example (paper §5.3.2): the end-user's view of Revelio,
// written against the public SDK (revelio + revelio/webclient).
//
// The demo walks the extension's full feature set against a live
// deployment:
//
//   - opportunistic discovery of Revelio sites (the robots.txt-style
//     well-known URL),
//   - manual registration with a golden measurement,
//   - the fresh-session attestation flow and per-request connection
//     monitoring,
//   - and the two failure modes end-users are protected from: a service
//     running unexpected software (measurement mismatch) and a DNS
//     redirect onto a valid-but-unattested certificate (connection
//     hijack).
//
// Run with: go run ./examples/webextension
package main

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"

	"revelio"
	"revelio/webclient"
)

const domain = "secure.example.org"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "webextension example:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	svc, err := revelio.New(ctx, revelio.WithDomain(domain))
	if err != nil {
		return err
	}
	defer svc.Close()
	if _, err := svc.Provision(ctx); err != nil {
		return err
	}
	if err := svc.ServeWeb(func(*revelio.Node) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("sensitive service"))
		})
	}); err != nil {
		return err
	}

	b := webclient.NewBrowser(svc.CARootPool(), 0)
	defer b.Close() // the session's keep-alive connections
	b.Resolve(domain, svc.WebAddr(0))
	ext := webclient.NewExtension(b, svc.Verifier())

	// 1. Opportunistic discovery.
	discovered, err := ext.Discover(ctx, domain)
	if err != nil {
		return err
	}
	fmt.Printf("discovered a Revelio site at %s\n  reported measurement: %s\n", domain, discovered)
	fmt.Printf("  (the user validates this against the published golden value: match=%v)\n\n",
		discovered == svc.Golden())

	// 2. Manual registration + attested navigation.
	ext.RegisterSite(domain, svc.Golden())
	if _, m, err := ext.Navigate(ctx, domain, "/"); err != nil {
		return err
	} else {
		fmt.Printf("navigated with attestation: fresh=%v attestation=%v\n\n", m.Attested, m.AttestationTime)
	}

	// 3. Failure mode A: wrong golden value (service runs unexpected
	// software, or the user mistyped the measurement).
	wrongExt := webclient.NewExtension(b, svc.Verifier())
	var wrong revelio.Measurement
	wrong[0] = 0xBB
	wrongExt.RegisterSite(domain, wrong)
	if _, _, err := wrongExt.Navigate(ctx, domain, "/"); errors.Is(err, webclient.ErrMeasurementMismatch) {
		fmt.Println("measurement mismatch correctly flagged (user is warned before any data flows)")
	} else {
		return fmt.Errorf("measurement mismatch not flagged: %v", err)
	}

	// 4. Failure mode B: DNS redirect onto an attacker server that even
	// holds a browser-valid certificate for the domain.
	attackerAddr, err := startAttacker(ctx, svc)
	if err != nil {
		return err
	}
	b.Resolve(domain, attackerAddr)
	if _, _, err := ext.Navigate(ctx, domain, "/login"); errors.Is(err, webclient.ErrConnectionHijacked) {
		fmt.Println("DNS redirect correctly flagged: connection no longer terminates in the attested VM")
	} else {
		return fmt.Errorf("redirect not flagged: %v", err)
	}

	fmt.Println("\nwebextension example OK")
	return nil
}

// startAttacker runs a phishing server with a CA-valid certificate for
// the domain (the attacker controls DNS, so DNS-01 passes).
func startAttacker(ctx context.Context, svc *revelio.Service) (string, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return "", err
	}
	csr, err := x509.CreateCertificateRequest(rand.Reader, &x509.CertificateRequest{
		Subject:  pkix.Name{CommonName: domain},
		DNSNames: []string{domain},
	}, key)
	if err != nil {
		return "", err
	}
	certDER, err := svc.ObtainCertificate(ctx, domain, csr)
	if err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	tlsLn := tls.NewListener(ln, &tls.Config{
		Certificates: []tls.Certificate{{Certificate: [][]byte{certDER}, PrivateKey: key}},
	})
	server := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("give me your password"))
	})}
	go func() { _ = server.Serve(tlsLn) }()
	return ln.Addr().String(), nil
}
