package webclient_test

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"revelio"
	"revelio/gateway"
	"revelio/internal/netlab"
	"revelio/webclient"
)

// TestAttestedNavigation drives the public end-user flow against a live
// service: discovery, registration, attested navigation, and the
// measurement-mismatch failure mode.
func TestAttestedNavigation(t *testing.T) {
	const domain = "webclient.test.example.org"
	ctx := context.Background()
	svc, err := revelio.New(ctx, revelio.WithDomain(domain))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	if _, err := svc.Provision(ctx); err != nil {
		t.Fatal(err)
	}
	if err := svc.ServeWeb(func(*revelio.Node) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("attested body"))
		})
	}); err != nil {
		t.Fatal(err)
	}

	b := webclient.NewBrowser(svc.CARootPool(), 0)
	b.Resolve(domain, svc.WebAddr(0))
	ext := webclient.NewExtension(b, svc.Verifier())

	discovered, err := ext.Discover(ctx, domain)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if discovered != svc.Golden() {
		t.Errorf("discovered measurement %s != golden", discovered)
	}

	ext.RegisterSite(domain, svc.Golden())
	resp, metrics, err := ext.Navigate(ctx, domain, "/")
	if err != nil {
		t.Fatalf("Navigate: %v", err)
	}
	if string(resp.Body) != "attested body" || !metrics.Attested {
		t.Errorf("resp=%q attested=%v", resp.Body, metrics.Attested)
	}

	wrongExt := webclient.NewExtension(b, svc.Verifier())
	var wrong revelio.Measurement
	wrong[0] = 0xBB
	wrongExt.RegisterSite(domain, wrong)
	if _, _, err := wrongExt.Navigate(ctx, domain, "/"); !errors.Is(err, webclient.ErrMeasurementMismatch) {
		t.Errorf("wrong golden: %v, want ErrMeasurementMismatch", err)
	}
}

// TestAttestedNavigationThroughGateway: the browser navigates to a
// fleet's gateway instead of a node and still gets the full attested
// verdict — the gateway terminates TLS with the shared attested key, so
// the extension's connection pinning and the proxied attestation bundle
// agree. Scale-out and node removal behind the gateway stay invisible,
// and the whole session — attestation, churn and all — rides the one
// downstream TLS connection the browser opened first.
func TestAttestedNavigationThroughGateway(t *testing.T) {
	ctx := context.Background()
	const domain = "gateway.webclient.test.example.org"
	f, err := revelio.NewFleet(ctx, revelio.FleetConfig{
		Nodes:  2,
		Domain: domain,
		App: func(*revelio.Node) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				_, _ = w.Write([]byte("balanced body"))
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	gw, err := gateway.New(gateway.Config{
		Source:         f,
		Verifier:       f.Mux(),
		GetCertificate: f.ServingCertificate,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}

	// The browser reaches the gateway through a relay that counts the
	// connections (that is, the downstream handshakes) it opens.
	path, err := netlab.NewRelay(ctx, gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(path.Close)
	b := webclient.NewBrowser(f.Deployment().CARootPool(), 0)
	t.Cleanup(b.Close)
	b.Resolve(domain, path.Addr())
	ext := webclient.NewExtension(b, f.Deployment().Verifier)
	ext.RegisterSite(domain, f.Golden())

	resp, metrics, err := ext.Navigate(ctx, domain, "/")
	if err != nil {
		t.Fatalf("Navigate through gateway: %v", err)
	}
	if string(resp.Body) != "balanced body" || !metrics.Attested {
		t.Errorf("resp=%q attested=%v", resp.Body, metrics.Attested)
	}

	// Churn behind the gateway: scale out, drop the original node, and
	// keep navigating — the attested-origin verdict must survive both.
	if _, err := f.AddNode(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveNode(ctx, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		resp, _, err := ext.Navigate(ctx, domain, "/")
		if err != nil {
			t.Fatalf("Navigate %d after churn: %v", i, err)
		}
		if string(resp.Body) != "balanced body" {
			t.Errorf("navigation %d body = %q", i, resp.Body)
		}
	}
	if stats := gw.Stats(); stats.Requests == 0 || len(stats.Ejected) != 0 {
		t.Errorf("gateway stats = %+v", stats)
	}
	if n := path.Accepted(); n != 1 {
		t.Errorf("the session opened %d downstream connections, want 1", n)
	}
}
