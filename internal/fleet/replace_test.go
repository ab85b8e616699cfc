package fleet_test

import (
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"revelio/internal/core"
	"revelio/internal/fleet"
	"revelio/internal/gateway"
	"revelio/internal/race"
)

// TestReplaceNodeNeverWaitsOutTheShutdownGrace: under gateway traffic a
// departing node's listeners regularly hold a connection the gateway
// dialled but never used (two requests dial the new node, the faster
// dial serves both). Removing the node must hang up on it, not sit out
// the 2 s shutdown grace for it — which one replacement in ten to fifty
// used to do. Counted, not timed: no listener of 300 replaced nodes
// (100 under -race or -short) is cut off by its grace, and no request
// fails.
func TestReplaceNodeNeverWaitsOutTheShutdownGrace(t *testing.T) {
	replacements := 300
	if testing.Short() || race.Enabled {
		replacements = 100 // a replacement costs five times as much under the race detector
	}
	ctx := context.Background()
	const domain = "replace.test.example.org"
	f, err := fleet.New(ctx, fleet.Config{Nodes: 2, Domain: domain})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gw, err := gateway.New(gateway.Config{Source: f, Verifier: f.Mux(), GetCertificate: f.ServingCertificate})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}

	transport := &http.Transport{
		TLSClientConfig:     &tls.Config{RootCAs: f.Deployment().CARootPool(), ServerName: domain},
		MaxIdleConnsPerHost: 8,
	}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	url := "https://" + gw.Addr() + core.HealthPath

	var (
		sent, failed atomic.Int64
		firstErr     error // written once, read after wg.Wait
		firstOnce    sync.Once
		stop         = make(chan struct{})
		wg           sync.WaitGroup
	)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sent.Add(1)
				resp, err := client.Get(url)
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					_ = resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
				}
				if err != nil {
					failed.Add(1)
					firstOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
	for i := 0; i < replacements; i++ {
		if _, err := f.ReplaceNode(ctx, i%2); err != nil {
			t.Fatalf("replacement %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	if n := f.Deployment().UndrainedCloses(); n != 0 {
		t.Errorf("%d listeners of %d replaced nodes ran out their shutdown grace", n, replacements)
	}
	if n := failed.Load(); n != 0 || sent.Load() == 0 {
		t.Errorf("%d of %d requests failed through the gateway; first: %v", n, sent.Load(), firstErr)
	}
}
