package core

import (
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"revelio/internal/attest"
	"revelio/internal/blockdev"
	"revelio/internal/certmgr"
	"revelio/internal/dmverity"
	"revelio/internal/imagebuild"
	"revelio/internal/netguard"
	"revelio/internal/registry"
	"revelio/internal/rootfs"
	"revelio/internal/vm"
)

func testConfig(nodes int) (Config, *imagebuild.Registry) {
	reg := imagebuild.NewRegistry()
	base := imagebuild.PublishUbuntuBase(reg)
	spec := imagebuild.CryptpadSpec(base)
	spec.PersistSize = 256 * 1024
	return Config{
		Spec:     spec,
		Registry: reg,
		Nodes:    nodes,
		Domain:   "svc.example.org",
	}, reg
}

func TestDeploymentLifecycle(t *testing.T) {
	cfg, _ := testConfig(2)
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer d.Close()

	if len(d.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(d.Nodes))
	}
	// The golden value computed from sources matches what every node
	// actually measured.
	for i, n := range d.Nodes {
		if n.VM.Measurement() != d.Golden {
			t.Errorf("node %d measurement differs from golden", i)
		}
	}

	res, err := d.ProvisionCertificates(context.Background())
	if err != nil {
		t.Fatalf("ProvisionCertificates: %v", err)
	}
	if res.Timings.CertGeneration <= 0 {
		t.Error("missing cert generation timing")
	}
	for i, n := range d.Nodes {
		if !n.Agent.Ready() {
			t.Errorf("node %d agent not ready", i)
		}
	}

	if err := d.StartWeb(nil); err != nil {
		t.Fatalf("StartWeb: %v", err)
	}
	for i, n := range d.Nodes {
		if n.WebAddr() == "" {
			t.Errorf("node %d web not started", i)
		}
	}
	// Double close is safe, including concurrently: Close is a
	// sync.Once no-op after the first call.
	d.Close()
	d.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Close()
		}()
	}
	wg.Wait()
}

func TestStartWebBeforeProvisionFails(t *testing.T) {
	cfg, _ := testConfig(1)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.StartWeb(nil); !errors.Is(err, certmgr.ErrNotReady) {
		t.Errorf("err = %v, want ErrNotReady", err)
	}
}

// TestStartWebHonoursNetworkPolicy: the measured network policy is what
// opens the web tier. An image that admits no inbound TCP 443 still
// provisions over its control listener, but StartWeb opens neither its
// HTTPS front end nor its RA-TLS upstream listener.
func TestStartWebHonoursNetworkPolicy(t *testing.T) {
	cfg, _ := testConfig(1)
	cfg.Spec.Policy = netguard.Policy{AllowedInboundTCP: []uint16{8443}}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.ProvisionCertificates(context.Background()); err != nil {
		t.Fatalf("ProvisionCertificates: %v", err)
	}
	if err := d.StartWeb(nil); !errors.Is(err, netguard.ErrDenied) {
		t.Fatalf("StartWeb: err = %v, want ErrDenied", err)
	}
	if n := d.Nodes[0]; n.WebAddr() != "" || n.UpstreamAddr() != "" {
		t.Errorf("listeners opened under a policy denying tcp/443: web %q, upstream %q", n.WebAddr(), n.UpstreamAddr())
	}
}

func TestConfigValidation(t *testing.T) {
	cfg, _ := testConfig(1)

	noNodes := cfg
	noNodes.Nodes = 0
	if _, err := New(noNodes); err == nil {
		t.Error("zero nodes accepted")
	}

	noReg := cfg
	noReg.Registry = nil
	if _, err := New(noReg); err == nil {
		t.Error("nil registry accepted")
	}

	noDomain := cfg
	noDomain.Domain = ""
	if _, err := New(noDomain); err == nil {
		t.Error("empty domain accepted")
	}
}

func TestTrustRegistryPolicy(t *testing.T) {
	cfg, _ := testConfig(1)
	trust := registry.New(1)
	trust.AddVoter("dao")
	cfg.TrustRegistry = trust
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Before the community votes, provisioning fails attestation.
	if _, err := d.ProvisionCertificates(context.Background()); !errors.Is(err, certmgr.ErrNodeRejected) {
		t.Fatalf("err = %v, want ErrNodeRejected", err)
	}
	if err := trust.Propose(d.Golden, "v1"); err != nil {
		t.Fatal(err)
	}
	if err := trust.Vote("dao", d.Golden); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProvisionCertificates(context.Background()); err != nil {
		t.Errorf("after vote: %v", err)
	}
}

func TestVerifierSeesNodes(t *testing.T) {
	cfg, _ := testConfig(1)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rep, err := d.Nodes[0].VM.Report([64]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Verifier.VerifyReport(context.Background(), rep); err != nil {
		t.Errorf("VerifyReport: %v", err)
	}
	// A verifier with a different golden rejects.
	other := attest.NewVerifier(d.KDSClient, attest.NewStaticGolden())
	if _, err := other.VerifyReport(context.Background(), rep); err == nil {
		t.Error("empty-golden verifier accepted the report")
	}
}

// bootReads replays every read a boot makes of the rootfs on disk — mount,
// network policy, service manifest, service binaries — through a fresh
// dm-verity device and nothing else: no verification pass. It returns
// the first read that fails.
func bootReads(t *testing.T, d *Deployment, disk blockdev.Device) error {
	t.Helper()
	table := d.Image.Table
	part := func(start, length int64) blockdev.Device {
		dev, err := blockdev.NewLinear(disk, start, length)
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	super := make([]byte, rootfs.BlockSize)
	if err := disk.ReadAt(super, table.HashStart); err != nil {
		t.Fatal(err)
	}
	var meta dmverity.Metadata
	if err := meta.UnmarshalBinary(super); err != nil {
		t.Fatal(err)
	}
	verity, err := dmverity.Open(part(table.RootfsStart, table.RootfsLen),
		part(table.HashStart+rootfs.BlockSize, table.HashLen-rootfs.BlockSize), &meta, d.Image.RootHash)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := rootfs.Mount(verity)
	if err != nil {
		return err
	}
	paths := []string{imagebuild.PolicyPath, imagebuild.ServicesPath}
	for _, svc := range d.Nodes[0].VM.Services() {
		paths = append(paths, "usr/bin/"+svc.Name)
	}
	for _, path := range paths {
		if _, err := fs.ReadFile(path); err != nil {
			return err
		}
	}
	return nil
}

// TestUnreadRootfsBlockTamperFailsBoot: every boot re-hashes the whole
// rootfs, so one flipped bit in a block that nothing reads while booting
// — per-read verification alone lets it through — stops a launch, an
// AddNode and a reboot before the node exists.
func TestUnreadRootfsBlockTamperFailsBoot(t *testing.T) {
	cfg, _ := testConfig(1)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// The archive's second block holds only the body of its first file,
	// bin/sh, which is no service; bootReads checks that no boot reads it.
	off := d.Image.Table.RootfsStart + rootfs.BlockSize + 77
	tamper := func(disk blockdev.Device) {
		t.Helper()
		if err := disk.(*blockdev.Mem).FlipBit(off, 4); err != nil {
			t.Fatal(err)
		}
		if err := bootReads(t, d, disk); err != nil {
			t.Fatalf("a boot reads the tampered block, so the test would prove nothing: %v", err)
		}
	}

	// Nodes launched from here on clone the tampered image; node 0 keeps
	// the chunks it cloned before.
	tamper(d.Image.Disk)
	if _, err := d.launchNode(d.nextChipSeed(), ""); !errors.Is(err, vm.ErrRootfsVerification) {
		t.Errorf("launchNode on a tampered image: err = %v, want ErrRootfsVerification", err)
	}
	if _, err := d.AddNode(context.Background()); !errors.Is(err, vm.ErrRootfsVerification) {
		t.Errorf("AddNode on a tampered image: err = %v, want ErrRootfsVerification", err)
	}
	if len(d.Nodes) != 1 {
		t.Fatalf("a node that failed to boot joined: %d nodes", len(d.Nodes))
	}

	tamper(d.Nodes[0].Disk())
	if err := d.rebootNode(context.Background(), 0); !errors.Is(err, vm.ErrRootfsVerification) {
		t.Errorf("rebootNode on a tampered disk: err = %v, want ErrRootfsVerification", err)
	}
}

func TestWebServesApp(t *testing.T) {
	cfg, _ := testConfig(1)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.ProvisionCertificates(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d.StartWeb(func(*Node) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("app"))
		})
	}); err != nil {
		t.Fatal(err)
	}
	// Sanity: the well-known endpoint is reachable over the web listener
	// (TLS verification exercised in webext tests; here we only check
	// the mux wiring with a permissive client).
	client := &http.Client{Transport: &http.Transport{TLSClientConfig: insecureTLS()}}
	resp, err := client.Get("https://" + d.Nodes[0].WebAddr() + certmgr.WellKnownPath)
	if err != nil {
		t.Fatalf("get well-known: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("well-known status = %d", resp.StatusCode)
	}
}

func insecureTLS() *tls.Config {
	// Test-only: the TLS trust path is exercised end to end in
	// internal/webext; this client only checks handler wiring.
	return &tls.Config{InsecureSkipVerify: true}
}

// TestRebootNodeRestoresService: a power-cycled node re-boots through
// measured direct boot, unseals its volume, restores its TLS credentials
// and serves again — without re-running the Fig 4 protocol.
func TestRebootNodeRestoresService(t *testing.T) {
	cfg, _ := testConfig(1)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.ProvisionCertificates(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d.StartWeb(nil); err != nil {
		t.Fatal(err)
	}
	certBefore, keyBefore, err := d.Nodes[0].Agent.TLSCredentials()
	if err != nil {
		t.Fatal(err)
	}

	if err := d.rebootNode(context.Background(), 0); err != nil {
		t.Fatalf("rebootNode: %v", err)
	}
	if d.Nodes[0].VM.Timings().FirstBoot {
		t.Error("rebooted node flagged as first boot")
	}
	certAfter, keyAfter, err := d.Nodes[0].Agent.TLSCredentials()
	if err != nil {
		t.Fatalf("credentials after reboot: %v", err)
	}
	if !bytes.Equal(certBefore, certAfter) || keyBefore.D.Cmp(keyAfter.D) != 0 {
		t.Error("credentials changed across reboot")
	}
	if d.Nodes[0].WebAddr() == "" {
		t.Error("web front end not restarted")
	}
	// The rebooted node still attests under the same golden value.
	rep, err := d.Nodes[0].VM.Report([64]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Verifier.VerifyReport(context.Background(), rep); err != nil {
		t.Errorf("rebooted node fails attestation: %v", err)
	}
	if err := d.rebootNode(context.Background(), 5); err == nil {
		t.Error("reboot of nonexistent node succeeded")
	}
}

// TestAddNodeJoinsAndServes: scale-out — a node added to a provisioned,
// serving deployment acquires the shared credentials via the SP's
// single-node path and opens its own HTTPS front end.
func TestAddNodeJoinsAndServes(t *testing.T) {
	cfg, _ := testConfig(1)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	res, err := d.ProvisionCertificates(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.StartWeb(nil); err != nil {
		t.Fatal(err)
	}

	idx, err := d.AddNode(context.Background())
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if idx != 1 || len(d.Nodes) != 2 {
		t.Fatalf("idx = %d, nodes = %d", idx, len(d.Nodes))
	}
	joined := d.Nodes[idx]
	if joined.Agent.Ready() {
		t.Fatal("node ready before single-node provisioning")
	}
	if err := d.SP.ProvisionNode(context.Background(), joined.ControlURL(),
		res.LeaderURL, res.CertDER); err != nil {
		t.Fatalf("ProvisionNode: %v", err)
	}
	if err := d.StartNodeWeb(idx); err != nil {
		t.Fatalf("StartNodeWeb: %v", err)
	}
	if joined.WebAddr() == "" {
		t.Fatal("joined node has no web front end")
	}
	// The joined node serves the same shared certificate.
	cert0, _, err := d.Nodes[0].Agent.TLSCredentials()
	if err != nil {
		t.Fatal(err)
	}
	cert1, _, err := joined.Agent.TLSCredentials()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cert0, cert1) {
		t.Error("joined node diverged from the shared certificate")
	}
}

// TestRemoveNodeForgetsAddress: a decommissioned node leaves the SP's
// approved set, so its address cannot be re-provisioned.
func TestRemoveNodeForgetsAddress(t *testing.T) {
	cfg, _ := testConfig(2)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	res, err := d.ProvisionCertificates(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	goneURL := d.Nodes[1].ControlURL()
	disk, err := d.RemoveNode(context.Background(), 1)
	if err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if disk == nil {
		t.Error("RemoveNode returned no disk for decommission scrubbing")
	}
	if len(d.Nodes) != 1 {
		t.Fatalf("nodes = %d, want 1", len(d.Nodes))
	}
	err = d.SP.ProvisionNode(context.Background(), goneURL, res.LeaderURL, res.CertDER)
	if !errors.Is(err, certmgr.ErrUnapprovedNode) {
		// The control server is down too, so a transport error is also
		// fail-closed; but the approved set must not still contain it.
		if err == nil {
			t.Error("removed node re-provisioned")
		}
	}
	if _, err := d.RemoveNode(context.Background(), 7); err == nil {
		t.Error("removing nonexistent node succeeded")
	}
}

// TestRotationReachesLiveListeners: a second Provision run (renewal)
// swaps the certificate the web tier serves without restarting any
// listener — connections made after the install see the new leaf.
func TestRotationReachesLiveListeners(t *testing.T) {
	cfg, _ := testConfig(2)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.ProvisionCertificates(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d.StartWeb(nil); err != nil {
		t.Fatal(err)
	}

	leafSerial := func(addr string) string {
		conn, err := tls.Dial("tcp", addr, &tls.Config{
			RootCAs:    d.CARootPool(),
			ServerName: cfg.Domain,
		})
		if err != nil {
			t.Fatalf("dial %s: %v", addr, err)
		}
		defer func() { _ = conn.Close() }()
		return conn.ConnectionState().PeerCertificates[0].SerialNumber.String()
	}

	addr0, addr1 := d.Nodes[0].WebAddr(), d.Nodes[1].WebAddr()
	before := leafSerial(addr0)
	if _, err := d.ProvisionCertificates(context.Background()); err != nil {
		t.Fatalf("rotation: %v", err)
	}
	after0, after1 := leafSerial(addr0), leafSerial(addr1)
	if after0 == before {
		t.Error("node 0 still serves the pre-rotation certificate")
	}
	if after0 != after1 {
		t.Error("nodes diverged after rotation")
	}
	if d.Nodes[0].WebAddr() != addr0 {
		t.Error("rotation restarted the web listener")
	}
}

// TestSetFirmwareChangesGolden: a firmware switch yields a new golden
// measurement, newly launched nodes boot under it, and — the sealing
// fail-closed property fleet rollouts rely on — an in-place reboot of an
// old node cannot unseal its persistent volume under the new
// measurement.
func TestSetFirmwareChangesGolden(t *testing.T) {
	cfg, _ := testConfig(1)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.ProvisionCertificates(context.Background()); err != nil {
		t.Fatal(err)
	}
	oldGolden := d.Golden

	newGolden, err := d.SetFirmware(context.Background(), "2024.11")
	if err != nil {
		t.Fatalf("SetFirmware: %v", err)
	}
	if newGolden == oldGolden {
		t.Fatal("firmware switch did not change the golden measurement")
	}
	if d.Golden != newGolden {
		t.Error("deployment golden not updated")
	}

	idx, err := d.AddNode(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Nodes[idx].VM.Measurement(); got != newGolden {
		t.Errorf("new node measurement = %s, want new golden", got)
	}

	// In-place reboot across the measurement change must fail closed: the
	// sealing key is measurement-derived, so the old node's persistent
	// volume cannot unseal under the new firmware.
	if err := d.rebootNode(context.Background(), 0); err == nil {
		t.Error("in-place reboot across a measurement change succeeded")
	}
}

// TestLifecycleCancellation: SetFirmware and the reboot seam refuse a
// dead context with a wrapped context error and leave the deployment
// unchanged — same golden, same firmware, the node's servers still up —
// and the reboot succeeds under a live one.
func TestLifecycleCancellation(t *testing.T) {
	cfg, _ := testConfig(1)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.ProvisionCertificates(context.Background()); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	golden, fw, control := d.Golden, d.Firmware, d.Nodes[0].Control
	if err := d.rebootNode(dead, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("rebootNode(dead): %v", err)
	}
	if d.Nodes[0].Control != control {
		t.Error("a cancelled reboot restarted the node's servers")
	}
	if _, err := d.SetFirmware(dead, "2031.01"); !errors.Is(err, context.Canceled) {
		t.Errorf("SetFirmware(dead): %v", err)
	}
	if d.Golden != golden || d.Firmware != fw {
		t.Error("golden or firmware changed by a cancelled SetFirmware")
	}

	if err := d.rebootNode(context.Background(), 0); err != nil {
		t.Fatalf("rebootNode: %v", err)
	}
	if d.Golden != golden {
		t.Error("golden changed without SetFirmware")
	}
}

// TestClockSkewExpiryWave: advancing the verification-plane clock past
// certificate validity fails fresh *and* cached verification closed
// (ErrEvidenceExpired); restoring the skew makes the same evidence
// verify again — the seam behind the chaos harness's cert-expiry waves.
func TestClockSkewExpiryWave(t *testing.T) {
	cfg, _ := testConfig(1)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rep, err := d.Nodes[0].VM.Report([64]byte{0x5C})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Prime the proof caches so the wave is tested against the warm path.
	for i := 0; i < 2; i++ {
		if _, err := d.Verifier.VerifyReport(ctx, rep); err != nil {
			t.Fatalf("prime pass %d: %v", i, err)
		}
	}

	// Simulated AMD certificates are valid for 20 years; 25 puts the
	// clock past every link of the proving chain.
	d.SetClockSkew(25 * 365 * 24 * time.Hour)
	if got := d.ClockSkew(); got != 25*365*24*time.Hour {
		t.Fatalf("ClockSkew = %v", got)
	}
	if _, err := d.Verifier.VerifyReport(ctx, rep); !errors.Is(err, attest.ErrEvidenceExpired) {
		t.Errorf("verification during expiry wave: %v, want ErrEvidenceExpired", err)
	}

	d.SetClockSkew(0)
	if _, err := d.Verifier.VerifyReport(ctx, rep); err != nil {
		t.Errorf("verification after skew restored: %v", err)
	}
}

// TestSPNetPartition: cutting one node's control link through the SP's
// transport fails provisioning cleanly; healing the partition restores
// it. This is the per-link fault the chaos scheduler composes.
func TestSPNetPartition(t *testing.T) {
	cfg, _ := testConfig(1)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	host := strings.TrimPrefix(d.Nodes[0].ControlURL(), "http://")
	d.spNet.Partition(errors.New("control link cut"), host)
	if _, err := d.ProvisionCertificates(context.Background()); err == nil {
		t.Fatal("provisioning succeeded across a partitioned control link")
	}
	d.spNet.HealPartition()
	if _, err := d.ProvisionCertificates(context.Background()); err != nil {
		t.Errorf("provisioning after heal: %v", err)
	}
}
