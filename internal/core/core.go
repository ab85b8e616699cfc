// Package core is Revelio's orchestration layer: it wires every substrate
// — manufacturer, chips, KDS, reproducible image build, measured direct
// boot, guest lifecycle, certificate management, trusted registry — into
// a running deployment that examples, tests and the benchmark harness
// drive through one API.
//
// A Deployment owns the full lifecycle: build the image, mint one chip
// per node, launch and boot each guest, run the agents' control servers,
// provision the shared certificate through the SP node, and finally bring
// up the HTTPS front ends end-users connect to.
package core

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"revelio/attestation/snp"
	"revelio/internal/acme"
	"revelio/internal/amdsp"
	"revelio/internal/attest"
	"revelio/internal/blockdev"
	"revelio/internal/certmgr"
	"revelio/internal/drain"
	"revelio/internal/firmware"
	"revelio/internal/hypervisor"
	"revelio/internal/imagebuild"
	"revelio/internal/kds"
	"revelio/internal/measure"
	"revelio/internal/netguard"
	"revelio/internal/netlab"
	"revelio/internal/par"
	"revelio/internal/ratls"
	"revelio/internal/registry"
	"revelio/internal/sev"
	"revelio/internal/vm"
)

// HealthPath is the node health endpoint the gateway's active probes
// hit over RA-TLS. When a deployment runs without an application
// handler a trivial ok handler answers it; with one, the application's
// catch-all serves the path — deliberately, so a stalled or gray-failed
// application stalls its probes too and probe-based re-entry reflects
// real serving health, not just a live listener.
const HealthPath = "/.well-known/revelio/health"

// errClosed refuses work on a deployment that Close has torn down: a
// listener opened after Close would have nothing left to close it.
var errClosed = errors.New("core: deployment closed")

// Config describes a deployment.
type Config struct {
	// Spec is the image specification (see imagebuild profiles).
	Spec imagebuild.Spec
	// Registry provides the pinned base images; required.
	Registry *imagebuild.Registry
	// FirmwareVersion selects the OVMF build.
	FirmwareVersion string
	// Nodes is the number of Revelio VMs to run.
	Nodes int
	// Domain is the service's web domain.
	Domain string
	// KDSRTT injects latency into verifier-side KDS fetches (Table 3's
	// 427 ms dominates on this path).
	KDSRTT time.Duration
	// SPNetRTT injects latency into SP-node-to-guest HTTP calls.
	SPNetRTT time.Duration
	// CARTT injects latency into certificate issuance (the paper's ~3 s
	// Let's Encrypt round trip).
	CARTT time.Duration
	// TrustRegistry, if set, is used as the verifier trust policy instead
	// of the static golden value.
	TrustRegistry *registry.Registry
	// Localities labels nodes with deployment zones: each launched node
	// takes the next label round-robin in launch order, so a three-node
	// deployment over ["zone-a", "zone-b"] lands in zone-a, zone-b,
	// zone-a. Empty means every node reports an empty locality. The label
	// is advisory routing context (it feeds the fleet endpoint snapshot);
	// it never affects attestation or provisioning.
	Localities []string
}

// Node is one running Revelio VM with its agent and servers.
type Node struct {
	VM      *vm.VM
	Agent   *certmgr.Agent
	Chip    sev.ChipID
	Control *httpServer // agent control endpoints (SP-facing)
	Web     *httpServer // HTTPS front end (user-facing), nil until StartWeb
	// Upstream is the node's RA-TLS listener: the same handler tree as
	// Web, but terminated by a certificate whose embedded attestation
	// evidence binds the listener key — what an attested gateway dials
	// through RA-TLS peer verification. Nil until StartWeb.
	Upstream *httpServer

	chip     *amdsp.SecureProcessor
	disk     blockdev.Device
	client   *http.Client // the agent's outbound client, reaped at removal
	locality string       // zone label from Config.Localities, "" when unset
}

// TCB returns the chip's reported trusted-computing-base version — the
// same value the node's attestation reports carry, exposed here so the
// serving view can publish it as routing context.
func (n *Node) TCB() uint64 { return n.chip.TCB() }

// Locality returns the node's zone label (Config.Localities, assigned
// round-robin at launch), or "" when the deployment runs unzoned.
func (n *Node) Locality() string { return n.locality }

// ControlURL returns the node's control-plane base URL.
func (n *Node) ControlURL() string { return n.Control.url }

// Disk exposes the node's raw disk — the host-side view an untrusted
// cloud provider (or the next tenant after decommissioning) has. Security
// tests scrape it to prove no plaintext leaks outside the TEE.
func (n *Node) Disk() blockdev.Device { return n.disk }

// WebAddr returns the HTTPS front end address (host:port), or "" before
// StartWeb.
func (n *Node) WebAddr() string {
	if n.Web == nil {
		return ""
	}
	return n.Web.listener.Addr().String()
}

// UpstreamAddr returns the RA-TLS upstream address (host:port), or ""
// before StartWeb.
func (n *Node) UpstreamAddr() string {
	if n.Upstream == nil {
		return ""
	}
	return n.Upstream.listener.Addr().String()
}

// Deployment is a complete running Revelio system.
type Deployment struct {
	Manufacturer *amdsp.Manufacturer
	Image        *imagebuild.Image
	Firmware     *firmware.Firmware
	Golden       measure.Measurement
	KDSServer    *httpServer
	KDSClient    *kds.Client
	Zone         *acme.Zone
	CA           *acme.CA
	SP           *certmgr.SPNode
	Verifier     *attest.Verifier
	Nodes        []*Node

	cfg        Config
	appHandler func(n *Node) http.Handler
	closeOnce  sync.Once
	closed     atomic.Bool       // set by Close; refuses joins, provisioning and web starts
	kdsNet     *netlab.Transport // verifier-side KDS path (outage injection)
	spNet      *netlab.Transport // SP-to-node control path (partition injection)
	clients    []*http.Client    // every client we created, for idle-conn reaping
	seq        int               // chip seed counter across launches
	launches   int               // locality round-robin counter across launches

	// clockSkew offsets the deployment's verification-plane clock (the
	// attestation verifier's certificate-validity checks and the KDS
	// client's TTL expiry) from the wall clock. Chaos scenarios advance
	// it to rehearse cert-expiry waves; zero means wall time.
	clockSkew atomic.Int64

	undrained atomic.Int64 // node listeners cut off at the end of their shutdown grace
}

// now is the deployment's verification-plane clock: wall time plus the
// injected skew.
func (d *Deployment) now() time.Time {
	return time.Now().Add(time.Duration(d.clockSkew.Load()))
}

// SetClockSkew offsets the verification-plane clock by skew, mid-flight
// safe. Skewing past certificate validity makes every fresh verification
// fail closed (ErrEvidenceExpired) — cached proofs are validity-bounded
// with the same clock, so they expire too. Restoring the skew to zero
// makes the same evidence verify again.
func (d *Deployment) SetClockSkew(skew time.Duration) { d.clockSkew.Store(int64(skew)) }

// ClockSkew returns the current verification-plane clock offset.
func (d *Deployment) ClockSkew() time.Duration { return time.Duration(d.clockSkew.Load()) }

// httpServer is a minimal managed HTTP(S) server on a loopback listener.
type httpServer struct {
	listener net.Listener
	server   *drain.Server
	url      string
}

func newHTTPServer(ln net.Listener, handler http.Handler, scheme string) *httpServer {
	return &httpServer{
		listener: ln,
		server:   drain.New(&http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}),
		url:      scheme + "://" + ln.Addr().String(),
	}
}

func startHTTP(handler http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: listen: %w", err)
	}
	s := newHTTPServer(ln, handler, "http")
	go func() { _ = s.server.Serve(ln) }()
	return s, nil
}

// startHTTPSDynamic serves HTTPS with the certificate resolved per
// handshake — what lets certificate rotation reach live listeners
// without a restart.
func startHTTPSDynamic(handler http.Handler, getCert func() (*tls.Certificate, error)) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: listen: %w", err)
	}
	tlsLn := tls.NewListener(ln, &tls.Config{
		GetCertificate: func(*tls.ClientHelloInfo) (*tls.Certificate, error) { return getCert() },
	})
	s := newHTTPServer(ln, handler, "https")
	go func() { _ = s.server.Serve(tlsLn) }()
	return s, nil
}

// close stops the server — every caller has drained its traffic or is
// tearing down — and reports whether it went quietly inside the 2 s
// grace (false: something was still in flight and was cut off).
func (s *httpServer) close() (drained bool) {
	if s == nil {
		return true
	}
	return s.server.Stop(2 * time.Second)
}

// stopServers closes a node's listeners, user-facing tier first, and
// counts the ones that did not drain inside their grace period.
func (d *Deployment) stopServers(n *Node) {
	for _, s := range []*httpServer{n.Web, n.Upstream, n.Control} {
		if !s.close() {
			d.undrained.Add(1)
		}
	}
}

// UndrainedCloses counts node listeners that were still busy when their
// 2 s shutdown grace ran out and were cut off. Every caller that stops a
// node has drained its traffic first, so anything but zero means a
// request or a connection outlived the drain.
func (d *Deployment) UndrainedCloses() int64 { return d.undrained.Load() }

// New builds the image, launches the nodes (all at once, each on the
// chip seed and locality of its place in node order) and starts the
// control plane. Call ProvisionCertificates and StartWeb afterwards, and
// Close when done.
func New(cfg Config) (*Deployment, error) {
	if cfg.Nodes <= 0 {
		return nil, errors.New("core: need at least one node")
	}
	if cfg.Registry == nil {
		return nil, errors.New("core: nil image registry")
	}
	if cfg.Domain == "" {
		return nil, errors.New("core: empty domain")
	}
	if cfg.FirmwareVersion == "" {
		cfg.FirmwareVersion = firmware.DefaultVersion
	}
	d := &Deployment{cfg: cfg}

	var err error
	if d.Manufacturer, err = amdsp.NewManufacturer([]byte("revelio-deployment")); err != nil {
		return nil, err
	}
	if d.KDSServer, err = startHTTP(kds.NewServer(d.Manufacturer)); err != nil {
		return nil, err
	}
	d.kdsNet = &netlab.Transport{RTT: cfg.KDSRTT}
	kdsClient := &http.Client{Transport: d.kdsNet}
	d.clients = append(d.clients, kdsClient)
	d.KDSClient = kds.NewClient(d.KDSServer.url, kdsClient, kds.WithClock(d.now))
	// The verification plane runs with the full fast path: parsed-cert
	// caching in the KDS client under the proof caches the verifier
	// carries. The VCEK only changes on SNP firmware updates, so a fresh
	// session need not pay a KDS round trip.
	d.KDSClient.SetCaching(true)

	if d.Image, err = imagebuild.NewBuilder(cfg.Registry).Build(cfg.Spec); err != nil {
		d.Close()
		return nil, err
	}
	d.Firmware = firmware.NewOVMF(cfg.FirmwareVersion)
	if d.Golden, err = hypervisor.ExpectedMeasurement(d.Firmware, d.bootBlobs()); err != nil {
		d.Close()
		return nil, err
	}

	var policy attest.TrustPolicy = attest.NewStaticGolden(d.Golden)
	if cfg.TrustRegistry != nil {
		policy = cfg.TrustRegistry
	}
	d.Verifier = attest.NewVerifier(d.KDSClient, policy, attest.WithClock(d.now))

	d.Zone = acme.NewZone()
	if d.CA, err = acme.NewCA(d.Zone, acme.WithLatency(cfg.CARTT)); err != nil {
		d.Close()
		return nil, err
	}

	// Chip seeds and localities are handed out in node order; the
	// launches, which share nothing but the image, then run at once.
	// d.Nodes keeps node order, and a failed launch closes every node
	// that did launch (Close skips the empty slots).
	seeds := make([][]byte, cfg.Nodes)
	localities := make([]string, cfg.Nodes)
	for i := range seeds {
		seeds[i], localities[i] = d.nextChipSeed(), d.locality(i)
	}
	d.Nodes = make([]*Node, cfg.Nodes)
	err = par.Each(cfg.Nodes, func(i int) error {
		node, err := d.launchNode(seeds[i], localities[i])
		if err != nil {
			return fmt.Errorf("core: launch node %d: %w", i, err)
		}
		d.Nodes[i] = node
		return nil
	})
	if err != nil {
		d.Close()
		return nil, err
	}
	d.launches = cfg.Nodes
	approved := make(map[string]sev.ChipID, cfg.Nodes)
	for _, node := range d.Nodes {
		approved[node.ControlURL()] = node.Chip
	}

	// The SP's outbound path gets its own named transport so fault
	// injection (partitioning a node's control link) can target it.
	d.spNet = &netlab.Transport{RTT: cfg.SPNetRTT}
	spClient := &http.Client{Transport: d.spNet}
	d.clients = append(d.clients, spClient)
	d.SP = certmgr.NewSPNode(d.Verifier, acme.NewClient(d.CA, d.Zone), cfg.Domain, approved, spClient)
	return d, nil
}

// nextChipSeed derives a fresh deterministic chip seed. Seeds never
// repeat across the deployment's lifetime, so a replacement node always
// runs on a brand-new chip identity.
func (d *Deployment) nextChipSeed() []byte {
	seed := []byte{byte(d.seq), byte(d.seq >> 8)}
	d.seq++
	return seed
}

// locality returns the zone label of the k-th successful launch:
// Config.Localities round-robin, or "" when the deployment runs unzoned.
func (d *Deployment) locality(k int) string {
	if len(d.cfg.Localities) == 0 {
		return ""
	}
	return d.cfg.Localities[k%len(d.cfg.Localities)]
}

// KDSNet exposes the transport between the deployment's verifiers and
// the KDS. Fleet scenarios inject latency changes and outages through it
// (netlab.Transport.SetOutage) to rehearse KDS failure and recovery.
func (d *Deployment) KDSNet() *netlab.Transport { return d.kdsNet }

// KDSURL returns the simulated AMD KDS base URL. Per-link chaos faults
// key netlab partitions on its host.
func (d *Deployment) KDSURL() string { return d.KDSServer.url }

func (d *Deployment) bootBlobs() hypervisor.BootBlobs {
	return hypervisor.BootBlobs{
		Kernel:  d.Image.Kernel,
		Initrd:  d.Image.Initrd,
		Cmdline: d.Image.Cmdline,
	}
}

// launchNode mints a chip, launches the guest, boots the VM and starts
// the agent control server. It touches no deployment state, so several
// launches may run at once.
func (d *Deployment) launchNode(chipSeed []byte, locality string) (*Node, error) {
	chip, err := d.Manufacturer.MintProcessor(chipSeed, 7)
	if err != nil {
		return nil, err
	}
	guest, err := hypervisor.New(chip).Launch(hypervisor.Config{
		Firmware: d.Firmware,
		Blobs:    d.bootBlobs(),
	})
	if err != nil {
		return nil, err
	}
	// Each node gets a private disk: a copy-on-write clone of the image,
	// which costs the node only the chunks it goes on to write.
	disk := d.Image.Disk.Clone()
	guestVM, err := vm.Boot(guest, vm.BootConfig{
		Disk:   disk,
		Table:  d.Image.Table,
		Domain: d.cfg.Domain,
	})
	if err != nil {
		return nil, err
	}
	// The agent's client, and its connection pool, are the node's own:
	// kept on the node rather than in the deployment-level list, and
	// closed with the node, so fleets under continuous churn neither
	// accumulate pools nor, closing one, drop another client's
	// connections (the verifier's to the KDS among them).
	client := netlab.Client(d.cfg.SPNetRTT)
	agent := certmgr.NewAgent(guestVM, d.Verifier, client)
	control, err := startHTTP(agent)
	if err != nil {
		// A crash between client creation and server start must not
		// strand the client's pool: nothing else will ever reap it.
		client.CloseIdleConnections()
		return nil, err
	}
	return &Node{
		VM:       guestVM,
		Agent:    agent,
		Chip:     chip.ChipID(),
		Control:  control,
		chip:     chip,
		disk:     disk,
		client:   client,
		locality: locality,
	}, nil
}

// AddNode launches one additional node (fresh chip, private copy-on-write
// clone of the deployment's current image, current firmware), starts its
// control server, and registers it in the SP node's approved set. The node is
// launched but unprovisioned: run the SP's single-node flow
// (SP.ProvisionNode) to hand it the shared credentials, then
// StartNodeWeb to open its HTTPS front end.
//
// A cancelled ctx aborts before any state changes: either the node is
// fully launched and registered, or the deployment is untouched. After
// Close it fails and launches nothing.
func (d *Deployment) AddNode(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("core: add node: %w", err)
	}
	if d.closed.Load() {
		return 0, fmt.Errorf("core: add node: %w", errClosed)
	}
	node, err := d.launchNode(d.nextChipSeed(), d.locality(d.launches))
	if err != nil {
		return 0, fmt.Errorf("core: add node: %w", err)
	}
	d.launches++
	d.Nodes = append(d.Nodes, node)
	d.SP.Approve(node.ControlURL(), node.Chip)
	return len(d.Nodes) - 1, nil
}

// RemoveNode decommissions node i: its web front end drains and closes
// first (no new user traffic), then its control server, and its address
// leaves the SP's approved set so the slot cannot be silently reused.
// The node's disk is returned for post-decommission security scrapes.
//
// Removal is not cancellable once under way — a half-decommissioned
// node would be worse than either outcome — so ctx is only honoured
// before the first side effect.
func (d *Deployment) RemoveNode(ctx context.Context, i int) (blockdev.Device, error) {
	if i < 0 || i >= len(d.Nodes) {
		return nil, fmt.Errorf("core: no node %d", i)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: remove node %d: %w", i, err)
	}
	n := d.Nodes[i]
	d.SP.Forget(n.ControlURL())
	d.stopServers(n)
	if n.client != nil {
		n.client.CloseIdleConnections()
	}
	d.Nodes = append(d.Nodes[:i], d.Nodes[i+1:]...)
	return n.disk, nil
}

// SetFirmware switches the deployment to a different measured firmware
// build and returns the new golden measurement. Already-running nodes
// keep their old measurement until relaunched; nodes launched afterwards
// (AddNode, rebootNode) boot the new firmware. The caller owns the trust
// hand-over: with a registry policy, propose/vote the new golden before
// rolling and revoke the old one after.
//
// The switch is atomic with respect to ctx: a cancellation observed
// before the measurement completes leaves the deployment on its current
// firmware.
func (d *Deployment) SetFirmware(ctx context.Context, version string) (measure.Measurement, error) {
	if err := ctx.Err(); err != nil {
		return measure.Measurement{}, fmt.Errorf("core: set firmware %q: %w", version, err)
	}
	fw := firmware.NewOVMF(version)
	golden, err := hypervisor.ExpectedMeasurement(fw, d.bootBlobs())
	if err != nil {
		return measure.Measurement{}, fmt.Errorf("core: measure firmware %q: %w", version, err)
	}
	d.Firmware = fw
	d.Golden = golden
	return golden, nil
}

// rebootNode power-cycles node i: the guest is relaunched on the same
// chip and the same disk, boots through measured direct boot again, and
// — because its measurement is unchanged — unseals the persistent volume
// and restores its TLS credentials without re-running provisioning. Its
// control and web servers are restarted. Production updates a node by
// replacement (fleet.RollOut); this is the seam the tamper and sealing
// tests boot through.
//
// ctx is honoured before the node's servers come down; past that point
// the reboot runs to completion (or error) — a node stopped halfway
// through a power cycle serves nobody.
func (d *Deployment) rebootNode(ctx context.Context, i int) error {
	if i < 0 || i >= len(d.Nodes) {
		return fmt.Errorf("core: no node %d", i)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: reboot node %d: %w", i, err)
	}
	n := d.Nodes[i]
	d.stopServers(n)
	hadWeb := n.Web != nil
	n.Web = nil
	n.Upstream = nil

	guest, err := hypervisor.New(n.chip).Launch(hypervisor.Config{
		Firmware: d.Firmware,
		Blobs:    d.bootBlobs(),
	})
	if err != nil {
		return fmt.Errorf("core: relaunch node %d: %w", i, err)
	}
	guestVM, err := vm.Boot(guest, vm.BootConfig{
		Disk:   n.disk,
		Table:  d.Image.Table,
		Domain: d.cfg.Domain,
	})
	if err != nil {
		return fmt.Errorf("core: reboot node %d: %w", i, err)
	}
	n.client.CloseIdleConnections()
	client := netlab.Client(d.cfg.SPNetRTT)
	agent := certmgr.NewAgent(guestVM, d.Verifier, client)
	if err := agent.RestoreFromPersist(); err != nil {
		client.CloseIdleConnections()
		return fmt.Errorf("core: node %d restore credentials: %w", i, err)
	}
	control, err := startHTTP(agent)
	if err != nil {
		client.CloseIdleConnections()
		return err
	}
	n.VM = guestVM
	n.Agent = agent
	n.Control = control
	n.client = client
	if hadWeb {
		if err := d.startNodeWeb(n); err != nil {
			return fmt.Errorf("core: node %d web restart: %w", i, err)
		}
	}
	return nil
}

// ProvisionCertificates runs the SP node's Fig 4 flow across all nodes.
func (d *Deployment) ProvisionCertificates(ctx context.Context) (*certmgr.ProvisionResult, error) {
	if d.closed.Load() {
		return nil, errClosed
	}
	urls := make([]string, len(d.Nodes))
	for i, n := range d.Nodes {
		urls[i] = n.ControlURL()
	}
	return d.SP.Provision(ctx, urls)
}

// StartWeb brings up each node's HTTPS front end with the provisioned
// shared certificate, every node at once. appHandler builds the per-node
// application handler (the CryptPad server, the Boundary Node proxy,
// ...) and may be called for several nodes at once; the well-known
// attestation endpoint is always mounted. A node whose measured network
// policy denies inbound TCP 443 gets neither the front end nor its
// RA-TLS upstream listener (an error wrapping netguard.ErrDenied). That
// port is the only part of the policy enforced: the SP-facing control
// listener and the outbound bit are not. When nodes fail, the error is
// the lowest-numbered one's, and the nodes that did open keep serving.
// After Close it fails and opens nothing.
func (d *Deployment) StartWeb(appHandler func(n *Node) http.Handler) error {
	if d.closed.Load() {
		return errClosed
	}
	d.appHandler = appHandler
	return par.Each(len(d.Nodes), func(i int) error {
		if err := d.startNodeWeb(d.Nodes[i]); err != nil {
			return fmt.Errorf("core: node %d: %w", i, err)
		}
		return nil
	})
}

// StartNodeWeb opens node i's HTTPS front end — the per-node half of
// StartWeb, used when a node joins an already-serving deployment.
func (d *Deployment) StartNodeWeb(i int) error {
	if i < 0 || i >= len(d.Nodes) {
		return fmt.Errorf("core: no node %d", i)
	}
	if d.closed.Load() {
		return errClosed
	}
	return d.startNodeWeb(d.Nodes[i])
}

func (d *Deployment) startNodeWeb(n *Node) error {
	// Both listeners below stand for the image's HTTPS port.
	if err := n.VM.Firewall().Check(netguard.Inbound, 443); err != nil {
		return err
	}
	// Refuse to open the listener before provisioning completed...
	if _, _, err := n.Agent.TLSCredentials(); err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle(certmgr.WellKnownPath, n.Agent)
	mounted := false
	if d.appHandler != nil {
		if h := d.appHandler(n); h != nil {
			mux.Handle("/", h)
			mounted = true
		}
	}
	if !mounted {
		// No application: answer health probes directly. With an
		// application its catch-all owns HealthPath (see the const doc).
		mux.HandleFunc(HealthPath, func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("ok"))
		})
	}
	// ...but resolve the certificate per handshake, so an SP-driven
	// rotation propagates to the serving tier the moment the agent
	// installs the renewed credentials — no listener restart, no window
	// where a client sees a refused connection. The old certificate keeps
	// serving until the atomic install, and both chain to the same CA.
	web, err := startHTTPSDynamic(mux, n.Agent.ServingCertificate)
	if err != nil {
		return err
	}

	// The upstream listener serves the same handler tree, but its trust
	// story is attestation rather than a CA: the certificate is minted
	// fresh inside the guest with SEV-SNP evidence binding its key, so a
	// gateway dialing it proves — per handshake, under current policy —
	// that the request terminates inside this measured VM.
	//revelio:allow ctxfirst ServeWeb's exported signature predates ctx threading; minting is local and non-blocking
	upstreamCert, err := ratls.CreateProviderCertificate(context.Background(),
		snp.NewNodeProvider(n.VM, d.Verifier), d.cfg.Domain)
	if err != nil {
		web.close()
		return fmt.Errorf("core: mint upstream RA-TLS certificate: %w", err)
	}
	upstream, err := startHTTPSDynamic(mux, func() (*tls.Certificate, error) {
		return &upstreamCert, nil
	})
	if err != nil {
		web.close()
		return err
	}
	n.Web = web
	n.Upstream = upstream
	return nil
}

// CARootPool returns the pool browsers trust (the simulated Let's
// Encrypt root).
func (d *Deployment) CARootPool() *x509.CertPool {
	pool := x509.NewCertPool()
	pool.AddCert(d.CA.RootCert())
	return pool
}

// Close shuts down every server the deployment started and reaps the
// HTTP clients it created. Teardown runs in dependency order — node web
// tier first (stop user traffic), then node control servers, then the
// KDS the nodes depend on — so nothing in flight dials a server that is
// already gone. Close is idempotent and safe for concurrent use:
// every call after the first is a no-op. After Close the deployment
// refuses AddNode, ProvisionCertificates, StartWeb and StartNodeWeb.
func (d *Deployment) Close() {
	d.closeOnce.Do(d.close)
}

func (d *Deployment) close() {
	d.closed.Store(true)
	for _, n := range d.Nodes {
		if n == nil {
			continue
		}
		d.stopServers(n)
		if n.client != nil {
			n.client.CloseIdleConnections()
		}
	}
	d.KDSServer.close()
	// Idle keep-alive connections hold read-loop goroutines; drop them so
	// repeated deployment cycles (fleet churn, leak tests) settle clean.
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
}
