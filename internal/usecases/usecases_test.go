package usecases

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"revelio/internal/boundary"
	"revelio/internal/browser"
	"revelio/internal/core"
	"revelio/internal/cryptpad"
	"revelio/internal/fleet"
	"revelio/internal/gateway"
	"revelio/internal/ic"
	"revelio/internal/imagebuild"
	"revelio/internal/webext"
)

// fixedDial returns a DialContext that always connects to addr, letting
// TLS still validate the domain name — the test's stand-in for DNS.
func fixedDial(addr string) func(ctx context.Context, network, _ string) (net.Conn, error) {
	return func(ctx context.Context, network, _ string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}
}

// staticSource is a gateway.Source over a membership that never changes.
type staticSource fleet.Snapshot

func (s staticSource) Acquire() (fleet.Snapshot, func()) { return fleet.Snapshot(s), func() {} }

func TestCryptpadOverAttestedTLS(t *testing.T) {
	const domain = "pad.example.org"
	reg := imagebuild.NewRegistry()
	base := imagebuild.PublishUbuntuBase(reg)
	spec := imagebuild.CryptpadSpec(base)
	spec.PersistSize = 256 * 1024
	d, err := core.New(core.Config{Spec: spec, Registry: reg, Nodes: 1, Domain: domain})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if _, err := d.ProvisionCertificates(context.Background()); err != nil {
		t.Fatal(err)
	}
	padServer := cryptpad.NewServer()
	if err := d.StartWeb(func(*core.Node) http.Handler { return padServer }); err != nil {
		t.Fatal(err)
	}

	// Alice attests and creates a pad through the browser TLS path.
	aliceBrowser := browser.New(d.CARootPool(), 0)
	aliceBrowser.Resolve(domain, d.Nodes[0].WebAddr())
	aliceExt := webext.New(aliceBrowser, d.Verifier)
	aliceExt.RegisterSite(domain, d.Golden)
	if _, m, err := aliceExt.Navigate(context.Background(), domain, "/"); err != nil || !m.Attested {
		t.Fatalf("alice attestation: err=%v m=%+v", err, m)
	}

	pad, err := cryptpad.NewPad()
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("quarterly numbers, do not leak")
	ct, err := pad.Seal(content, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := padServer.Put(pad.ID, ct, 0); err != nil {
		t.Fatal(err)
	}

	// Bob attests independently, then reads the pad over the attested
	// session via the HTTP API.
	bobBrowser := browser.New(d.CARootPool(), 0)
	bobBrowser.Resolve(domain, d.Nodes[0].WebAddr())
	bobExt := webext.New(bobBrowser, d.Verifier)
	bobExt.RegisterSite(domain, d.Golden)
	bobPad, err := cryptpad.ParseShareLink(pad.ShareLink(domain))
	if err != nil {
		t.Fatal(err)
	}
	resp, m, err := bobExt.Navigate(context.Background(), domain, "/pad/"+bobPad.ID)
	if err != nil || !m.Attested {
		t.Fatalf("bob attested read: err=%v m=%+v", err, m)
	}
	var wire struct {
		Version    uint64 `json:"version"`
		Ciphertext []byte `json:"ciphertext"`
	}
	if err := json.Unmarshal(resp.Body, &wire); err != nil {
		t.Fatalf("pad wire: %v (%s)", err, resp.Body)
	}
	pt, err := bobPad.Open(wire.Ciphertext, wire.Version)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(pt, content) {
		t.Errorf("bob read %q, want %q", pt, content)
	}

	// The pad state snapshot belongs on the sealed volume.
	snap, err := padServer.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Nodes[0].VM.Persist().WriteAt(snap, 4096); err != nil {
		t.Fatalf("persist snapshot: %v", err)
	}
	// Host-side raw disk holds neither pad plaintext nor snapshot
	// plaintext.
	raw := make([]byte, d.Nodes[0].Disk().Size())
	if err := d.Nodes[0].Disk().ReadAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, content) {
		t.Error("pad plaintext on raw disk")
	}
}

// TestCryptpadSurvivesNodeReplacement runs CryptPad on a fleet through
// a full node-replacement cycle — the leader is decommissioned and a
// fresh node joins through the attested key-acquisition path — while
// client traffic flows, with zero failed requests. Pads written before
// the churn stay readable after it: the pad state lives in the
// application tier, the TLS identity in the shared certificate, and
// neither depends on which physical node survives.
func TestCryptpadSurvivesNodeReplacement(t *testing.T) {
	const domain = "pad.example.org"
	padServer := cryptpad.NewServer()
	f, err := fleet.New(context.Background(), fleet.Config{
		Nodes:  2,
		Domain: domain,
		App:    func(*core.Node) http.Handler { return padServer },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	ctx := context.Background()
	d := f.Deployment()

	// Alice attests node 0 and stores a pad before any churn.
	aliceBrowser := browser.New(d.CARootPool(), 0)
	aliceBrowser.Resolve(domain, d.Nodes[0].WebAddr())
	aliceExt := webext.New(aliceBrowser, d.Verifier)
	aliceExt.RegisterSite(domain, d.Golden)
	if _, m, err := aliceExt.Navigate(ctx, domain, "/"); err != nil || !m.Attested {
		t.Fatalf("alice attestation: err=%v m=%+v", err, m)
	}
	pad, err := cryptpad.NewPad()
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("meeting notes: survive the churn")
	ct, err := pad.Seal(content, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := padServer.Put(pad.ID, ct, 0); err != nil {
		t.Fatal(err)
	}

	// Replace the leader under continuous traffic.
	tr := f.StartTraffic(ctx, 4)
	leaderURL := f.LeaderURL()
	leaderIdx := -1
	for i, n := range d.Nodes {
		if n.ControlURL() == leaderURL {
			leaderIdx = i
			break
		}
	}
	if leaderIdx < 0 {
		t.Fatal("leader not found")
	}
	newIdx, err := f.ReplaceNode(ctx, leaderIdx)
	if err != nil {
		t.Fatalf("ReplaceNode: %v", err)
	}
	requests, failures, firstErr := tr.Stop()
	if failures != 0 {
		t.Fatalf("churn failed %d/%d requests; first: %v", failures, requests, firstErr)
	}
	if requests == 0 {
		t.Fatal("no traffic flowed during the replacement")
	}
	if err := f.VerifyFleet(ctx); err != nil {
		t.Fatalf("fleet invalid after replacement: %v", err)
	}

	// Bob attests the replacement node and reads Alice's pad through it.
	bobBrowser := browser.New(d.CARootPool(), 0)
	bobBrowser.Resolve(domain, d.Nodes[newIdx].WebAddr())
	bobExt := webext.New(bobBrowser, d.Verifier)
	bobExt.RegisterSite(domain, d.Golden)
	bobPad, err := cryptpad.ParseShareLink(pad.ShareLink(domain))
	if err != nil {
		t.Fatal(err)
	}
	resp, m, err := bobExt.Navigate(ctx, domain, "/pad/"+bobPad.ID)
	if err != nil || !m.Attested {
		t.Fatalf("bob attested read via replacement node: err=%v m=%+v", err, m)
	}
	var wire struct {
		Version    uint64 `json:"version"`
		Ciphertext []byte `json:"ciphertext"`
	}
	if err := json.Unmarshal(resp.Body, &wire); err != nil {
		t.Fatalf("pad wire: %v (%s)", err, resp.Body)
	}
	pt, err := bobPad.Open(wire.Ciphertext, wire.Version)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(pt, content) {
		t.Errorf("bob read %q through the replacement node, want %q", pt, content)
	}
}

func TestBoundaryNodeOverAttestedTLS(t *testing.T) {
	const domain = "ic0.example.org"
	subnet, err := ic.NewSubnet("subnet-x", 4, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	network := ic.NewNetwork()
	network.AddSubnet(subnet)
	canister := ic.NewCanister("greeter",
		map[string]ic.Handler{
			"hello": func(_ *ic.State, arg []byte) ([]byte, error) {
				return append([]byte("hi "), arg...), nil
			},
		}, nil)
	if err := network.InstallCanister("subnet-x", canister); err != nil {
		t.Fatal(err)
	}

	reg := imagebuild.NewRegistry()
	base := imagebuild.PublishUbuntuBase(reg)
	spec := imagebuild.BoundaryNodeSpec(base)
	spec.PersistSize = 256 * 1024
	d, err := core.New(core.Config{Spec: spec, Registry: reg, Nodes: 1, Domain: domain})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if _, err := d.ProvisionCertificates(context.Background()); err != nil {
		t.Fatal(err)
	}
	proxy := boundary.NewProxy(network, "2.0.0")
	if err := d.StartWeb(func(*core.Node) http.Handler { return proxy }); err != nil {
		t.Fatal(err)
	}

	// The user attests the BN and fetches the service worker over the
	// attested session.
	b := browser.New(d.CARootPool(), 0)
	b.Resolve(domain, d.Nodes[0].WebAddr())
	ext := webext.New(b, d.Verifier)
	ext.RegisterSite(domain, d.Golden)
	resp, m, err := ext.Navigate(context.Background(), domain, boundary.ServiceWorkerPath)
	if err != nil || !m.Attested {
		t.Fatalf("attest + fetch worker: err=%v m=%+v", err, m)
	}
	if !bytes.Equal(resp.Body, boundary.ServiceWorkerBody("2.0.0")) {
		t.Error("served worker differs from canonical (measured) body")
	}

	// The worker then calls canisters over TLS against the BN, verifying
	// threshold certificates.
	tlsClient := &http.Client{
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{RootCAs: d.CARootPool(), ServerName: domain},
			DialContext:     fixedDial(d.Nodes[0].WebAddr()),
		},
	}
	sw := boundary.NewServiceWorker(subnet.PublicKey())
	reply, err := sw.Call(context.Background(), tlsClient, "https://"+domain, "greeter", ic.KindQuery, "hello", []byte("user"))
	if err != nil {
		t.Fatalf("worker call over TLS: %v", err)
	}
	if string(reply) != "hi user" {
		t.Errorf("reply = %q", reply)
	}

	// A malicious BN cannot tamper undetected even over the attested TLS
	// channel — the subnet certificate is independent of the transport.
	proxy.TamperReplies(true)
	if _, err := sw.Call(context.Background(), tlsClient, "https://"+domain, "greeter", ic.KindQuery, "hello", nil); !errors.Is(err, boundary.ErrTampered) {
		t.Errorf("tamper: err = %v, want ErrTampered", err)
	}
}

// TestCryptpadBehindGateway runs the CryptPad use case through the
// attested gateway data plane: users navigate to one gateway address,
// requests balance over every attested node, and a node replacement
// behind the gateway is invisible — zero failed requests, pads intact.
func TestCryptpadBehindGateway(t *testing.T) {
	const domain = "pad.gw.example.org"
	padServer := cryptpad.NewServer()
	f, err := fleet.New(context.Background(), fleet.Config{
		Nodes:  3,
		Domain: domain,
		App:    func(*core.Node) http.Handler { return padServer },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	ctx := context.Background()
	d := f.Deployment()

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

	// Alice attests *the gateway address* and still gets the fleet's
	// attested origin: shared TLS key downstream, per-handshake RA-TLS
	// upstream.
	aliceBrowser := browser.New(d.CARootPool(), 0)
	aliceBrowser.Resolve(domain, gw.Addr())
	aliceExt := webext.New(aliceBrowser, d.Verifier)
	aliceExt.RegisterSite(domain, d.Golden)
	if _, m, err := aliceExt.Navigate(ctx, domain, "/"); err != nil || !m.Attested {
		t.Fatalf("alice attestation via gateway: err=%v m=%+v", err, m)
	}
	pad, err := cryptpad.NewPad()
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("balanced across attested nodes")
	ct, err := pad.Seal(content, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := padServer.Put(pad.ID, ct, 0); err != nil {
		t.Fatal(err)
	}

	// Hammer the gateway while the leader is replaced: the serving-view
	// drain must make the churn invisible to gateway clients.
	client := &http.Client{
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{RootCAs: d.CARootPool(), ServerName: domain},
		},
		Timeout: 10 * time.Second,
	}
	t.Cleanup(client.CloseIdleConnections)
	var wg sync.WaitGroup
	var failures, requests atomic.Int64
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get("https://" + gw.Addr() + "/pad/" + pad.ID)
				requests.Add(1)
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
	if _, err := f.ReplaceNode(ctx, 0); err != nil {
		t.Fatalf("ReplaceNode behind gateway: %v", err)
	}
	close(stop)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("gateway surfaced %d/%d failed requests during replacement", n, requests.Load())
	}
	if requests.Load() == 0 {
		t.Fatal("no gateway traffic flowed during the replacement")
	}

	// Bob reads Alice's pad through the gateway after the churn, with a
	// fresh attested session.
	bobBrowser := browser.New(d.CARootPool(), 0)
	bobBrowser.Resolve(domain, gw.Addr())
	bobExt := webext.New(bobBrowser, d.Verifier)
	bobExt.RegisterSite(domain, d.Golden)
	bobPad, err := cryptpad.ParseShareLink(pad.ShareLink(domain))
	if err != nil {
		t.Fatal(err)
	}
	resp, m, err := bobExt.Navigate(ctx, domain, "/pad/"+bobPad.ID)
	if err != nil || !m.Attested {
		t.Fatalf("bob attested read via gateway: err=%v m=%+v", err, m)
	}
	var wire struct {
		Version    uint64 `json:"version"`
		Ciphertext []byte `json:"ciphertext"`
	}
	if err := json.Unmarshal(resp.Body, &wire); err != nil {
		t.Fatalf("pad wire: %v (%s)", err, resp.Body)
	}
	pt, err := bobPad.Open(wire.Ciphertext, wire.Version)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(pt, content) {
		t.Errorf("bob read %q through the gateway, want %q", pt, content)
	}
}

// TestBoundaryNodeBehindGateway fronts the Boundary Node use case (and
// the simulated Internet Computer behind it) with the attested gateway:
// the service worker is fetched and canisters are called through the
// gateway address, threshold certificates still verify end to end, and
// a tampering proxy is still caught — the certificate chain is
// independent of how many hops the transport has.
func TestBoundaryNodeBehindGateway(t *testing.T) {
	const domain = "ic0.gw.example.org"
	subnet, err := ic.NewSubnet("subnet-gw", 4, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	network := ic.NewNetwork()
	network.AddSubnet(subnet)
	canister := ic.NewCanister("greeter",
		map[string]ic.Handler{
			"hello": func(_ *ic.State, arg []byte) ([]byte, error) {
				return append([]byte("hi "), arg...), nil
			},
		}, nil)
	if err := network.InstallCanister("subnet-gw", canister); err != nil {
		t.Fatal(err)
	}

	reg := imagebuild.NewRegistry()
	base := imagebuild.PublishUbuntuBase(reg)
	spec := imagebuild.BoundaryNodeSpec(base)
	spec.PersistSize = 256 * 1024
	d, err := core.New(core.Config{Spec: spec, Registry: reg, Nodes: 2, Domain: domain})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if _, err := d.ProvisionCertificates(context.Background()); err != nil {
		t.Fatal(err)
	}
	proxy := boundary.NewProxy(network, "2.0.0")
	if err := d.StartWeb(func(*core.Node) http.Handler { return proxy }); err != nil {
		t.Fatal(err)
	}

	// The boundary-node image has no fleet engine behind it, so the test
	// stands in for one with a fixed view of the two nodes.
	view := staticSource{Version: 1, Domain: domain}
	for _, n := range d.Nodes {
		view.Endpoints = append(view.Endpoints, fleet.NodeEndpoint(n, ""))
	}
	gw, err := gateway.New(gateway.Config{
		Source:         view,
		Verifier:       d.Verifier,
		GetCertificate: d.Nodes[0].Agent.ServingCertificate,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}

	// Attest and fetch the service worker through the gateway.
	b := browser.New(d.CARootPool(), 0)
	b.Resolve(domain, gw.Addr())
	ext := webext.New(b, d.Verifier)
	ext.RegisterSite(domain, d.Golden)
	resp, m, err := ext.Navigate(context.Background(), domain, boundary.ServiceWorkerPath)
	if err != nil || !m.Attested {
		t.Fatalf("attest + fetch worker via gateway: err=%v m=%+v", err, m)
	}
	if !bytes.Equal(resp.Body, boundary.ServiceWorkerBody("2.0.0")) {
		t.Error("worker served through the gateway differs from canonical body")
	}

	// Canister calls ride the gateway too; threshold certificates verify.
	tlsClient := &http.Client{
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{RootCAs: d.CARootPool(), ServerName: domain},
			DialContext:     fixedDial(gw.Addr()),
		},
	}
	t.Cleanup(tlsClient.CloseIdleConnections)
	sw := boundary.NewServiceWorker(subnet.PublicKey())
	reply, err := sw.Call(context.Background(), tlsClient, "https://"+domain, "greeter", ic.KindQuery, "hello", []byte("user"))
	if err != nil {
		t.Fatalf("worker call through gateway: %v", err)
	}
	if string(reply) != "hi user" {
		t.Errorf("reply = %q", reply)
	}
	proxy.TamperReplies(true)
	if _, err := sw.Call(context.Background(), tlsClient, "https://"+domain, "greeter", ic.KindQuery, "hello", nil); !errors.Is(err, boundary.ErrTampered) {
		t.Errorf("tamper through gateway: err = %v, want ErrTampered", err)
	}
}
