package certmgr

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"revelio/internal/acme"
	"revelio/internal/amdsp"
	"revelio/internal/attest"
	"revelio/internal/firmware"
	"revelio/internal/hypervisor"
	"revelio/internal/imagebuild"
	"revelio/internal/kds"
	"revelio/internal/measure"
	"revelio/internal/registry"
	"revelio/internal/sev"
	"revelio/internal/vm"
)

// cluster is a full deployment: one manufacturer, N chips each running
// one Revelio VM with an agent, a KDS, a CA, and an SP node.
type cluster struct {
	mfr      *amdsp.Manufacturer
	img      *imagebuild.Image
	fw       *firmware.Firmware
	kds      *kds.Client
	verifier *attest.Verifier
	golden   measure.Measurement
	agents   []*Agent
	urls     []string
	approved map[string]sev.ChipID
	ca       *acme.CA
	zone     *acme.Zone
	sp       *SPNode
}

func newCluster(t testing.TB, nodes int) *cluster {
	t.Helper()
	return newClusterUnder(t, nodes, nil)
}

// newClusterUnder builds the cluster with a live trust registry as the
// verifier's policy (the golden measurement voted in) instead of the
// hard-coded golden value; nil keeps the latter.
func newClusterUnder(t testing.TB, nodes int, trust *registry.Registry) *cluster {
	t.Helper()
	c := &cluster{approved: make(map[string]sev.ChipID, nodes)}

	var err error
	if c.mfr, err = amdsp.NewManufacturer([]byte("certmgr-test")); err != nil {
		t.Fatal(err)
	}
	kdsServer := httptest.NewServer(kds.NewServer(c.mfr))
	t.Cleanup(kdsServer.Close)
	c.kds = kds.NewClient(kdsServer.URL, nil)

	reg := imagebuild.NewRegistry()
	base := imagebuild.PublishUbuntuBase(reg)
	spec := imagebuild.CryptpadSpec(base)
	spec.PersistSize = 256 * 1024
	if c.img, err = imagebuild.NewBuilder(reg).Build(spec); err != nil {
		t.Fatal(err)
	}
	c.fw = firmware.NewOVMF("2023.05")

	// Golden measurement: reconstructed from sources, as an auditor would.
	golden, err := hypervisor.ExpectedMeasurement(c.fw, hypervisor.BootBlobs{
		Kernel: c.img.Kernel, Initrd: c.img.Initrd, Cmdline: c.img.Cmdline,
	})
	if err != nil {
		t.Fatal(err)
	}
	var policy attest.TrustPolicy = attest.NewStaticGolden(golden)
	if trust != nil {
		trust.AddVoter("operator")
		if err := trust.Propose(golden, "golden"); err != nil {
			t.Fatal(err)
		}
		if err := trust.Vote("operator", golden); err != nil {
			t.Fatal(err)
		}
		policy = trust
	}
	c.golden = golden
	c.verifier = attest.NewVerifier(c.kds, policy)

	for i := 0; i < nodes; i++ {
		v := c.bootNode(t, []byte{byte(i)})
		agent := NewAgent(v, c.verifier, nil)
		server := httptest.NewServer(agent)
		t.Cleanup(server.Close)
		c.agents = append(c.agents, agent)
		c.urls = append(c.urls, server.URL)
		c.approved[server.URL] = v.Identity().CSRReport.ChipID
	}

	c.zone = acme.NewZone()
	if c.ca, err = acme.NewCA(c.zone); err != nil {
		t.Fatal(err)
	}
	c.sp = NewSPNode(c.verifier, acme.NewClient(c.ca, c.zone),
		"svc.example.org", c.approved, nil)
	return c
}

// bootNode launches and boots one VM on a fresh chip. Each node gets its
// own disk copy (nodes do not share storage).
func (c *cluster) bootNode(t testing.TB, chipSeed []byte) *vm.VM {
	t.Helper()
	return c.bootNodeOn(t, chipSeed, c.fw)
}

// bootNodeOn is bootNode under the given firmware: any build but c.fw
// measures differently from the cluster's golden value.
func (c *cluster) bootNodeOn(t testing.TB, chipSeed []byte, fw *firmware.Firmware) *vm.VM {
	t.Helper()
	sp, err := c.mfr.MintProcessor(chipSeed, 7)
	if err != nil {
		t.Fatal(err)
	}
	guest, err := hypervisor.New(sp).Launch(hypervisor.Config{
		Firmware: fw,
		Blobs: hypervisor.BootBlobs{
			Kernel: c.img.Kernel, Initrd: c.img.Initrd, Cmdline: c.img.Cmdline,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	disk := blockdevCopy(c.img)
	v, err := vm.Boot(guest, vm.BootConfig{
		Disk: disk, Table: c.img.Table, Domain: "svc.example.org",
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// blockdevCopy clones the image disk so each node has private storage.
func blockdevCopy(img *imagebuild.Image) *memDisk {
	return &memDisk{data: img.Disk.Snapshot()}
}

// memDisk is a trivial private Device (avoids mutating the shared image).
type memDisk struct{ data []byte }

func (m *memDisk) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(m.data)) {
		return errors.New("memdisk: out of range")
	}
	copy(p, m.data[off:])
	return nil
}

func (m *memDisk) WriteAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(m.data)) {
		return errors.New("memdisk: out of range")
	}
	copy(m.data[off:], p)
	return nil
}

func (m *memDisk) Size() int64 { return int64(len(m.data)) }

func TestProvisionThreeNodes(t *testing.T) {
	c := newCluster(t, 3)
	res, err := c.sp.Provision(context.Background(), c.urls)
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if res.LeaderURL != c.urls[0] {
		t.Errorf("leader = %s, want %s", res.LeaderURL, c.urls[0])
	}
	if !c.agents[0].IsLeader() {
		t.Error("agent 0 not leader")
	}

	// All agents ready with the same certificate and the same key.
	cert0, key0, err := c.agents[0].TLSCredentials()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range c.agents {
		if !a.Ready() {
			t.Fatalf("agent %d not ready", i)
		}
		cert, key, err := a.TLSCredentials()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cert, cert0) {
			t.Errorf("agent %d has a different certificate", i)
		}
		if !key.PublicKey.Equal(&key0.PublicKey) || key.D.Cmp(key0.D) != 0 {
			t.Errorf("agent %d has a different private key", i)
		}
		if i > 0 && a.IsLeader() {
			t.Errorf("agent %d wrongly leader", i)
		}
	}

	// The certificate binds the leader's identity key and chains to the CA.
	cert, err := x509.ParseCertificate(cert0)
	if err != nil {
		t.Fatal(err)
	}
	pub, ok := cert.PublicKey.(*ecdsa.PublicKey)
	if !ok || !pub.Equal(&key0.PublicKey) {
		t.Error("certificate/key mismatch")
	}
	roots := x509.NewCertPool()
	roots.AddCert(c.ca.RootCert())
	if _, err := cert.Verify(x509.VerifyOptions{Roots: roots, DNSName: "svc.example.org"}); err != nil {
		t.Errorf("certificate chain: %v", err)
	}

	tm := res.Timings
	if tm.EvidenceRetrieval <= 0 || tm.EvidenceValidation <= 0 ||
		tm.CertGeneration <= 0 || tm.CertDistribution <= 0 {
		t.Errorf("missing timings: %+v", tm)
	}
}

func TestProvisionSingleNode(t *testing.T) {
	c := newCluster(t, 1)
	if _, err := c.sp.Provision(context.Background(), c.urls); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if !c.agents[0].IsLeader() || !c.agents[0].Ready() {
		t.Error("single node should be its own leader")
	}
}

func TestProvisionNoNodes(t *testing.T) {
	c := newCluster(t, 1)
	if _, err := c.sp.Provision(context.Background(), nil); !errors.Is(err, ErrNoNodes) {
		t.Errorf("err = %v, want ErrNoNodes", err)
	}
}

// An impersonator with an authentic report but an unapproved chip is
// rejected (§5.3.1).
func TestProvisionRejectsUnapprovedChip(t *testing.T) {
	c := newCluster(t, 2)
	// Swap expectations: claim node 1's URL runs node 0's chip.
	c.approved[c.urls[1]] = c.approved[c.urls[0]]
	sp := NewSPNode(c.verifier, acme.NewClient(c.ca, c.zone),
		"svc.example.org", c.approved, nil)
	if _, err := sp.Provision(context.Background(), c.urls); !errors.Is(err, ErrUnapprovedNode) {
		t.Errorf("err = %v, want ErrUnapprovedNode", err)
	}
}

func TestProvisionRejectsUnknownAddress(t *testing.T) {
	c := newCluster(t, 2)
	delete(c.approved, c.urls[1])
	sp := NewSPNode(c.verifier, acme.NewClient(c.ca, c.zone),
		"svc.example.org", c.approved, nil)
	if _, err := sp.Provision(context.Background(), c.urls); !errors.Is(err, ErrUnapprovedNode) {
		t.Errorf("err = %v, want ErrUnapprovedNode", err)
	}
}

// A node running a different (tampered) image fails the SP's attestation.
func TestProvisionRejectsWrongMeasurement(t *testing.T) {
	c := newCluster(t, 1)

	// Build an evil image and boot a node from it.
	reg := imagebuild.NewRegistry()
	base := imagebuild.PublishUbuntuBase(reg)
	spec := imagebuild.CryptpadSpec(base)
	spec.PersistSize = 256 * 1024
	spec.Version = "1.0.0-evil"
	evilImg, err := imagebuild.NewBuilder(reg).Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := c.mfr.MintProcessor([]byte("evil-chip"), 7)
	if err != nil {
		t.Fatal(err)
	}
	guest, err := hypervisor.New(chip).Launch(hypervisor.Config{
		Firmware: c.fw,
		Blobs: hypervisor.BootBlobs{
			Kernel: evilImg.Kernel, Initrd: evilImg.Initrd, Cmdline: evilImg.Cmdline,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	evilVM, err := vm.Boot(guest, vm.BootConfig{
		Disk: blockdevCopy(evilImg), Table: evilImg.Table, Domain: "svc.example.org",
	})
	if err != nil {
		t.Fatal(err)
	}
	evilAgent := NewAgent(evilVM, c.verifier, nil)
	evilServer := httptest.NewServer(evilAgent)
	t.Cleanup(evilServer.Close)
	c.approved[evilServer.URL] = evilVM.Identity().CSRReport.ChipID

	sp := NewSPNode(c.verifier, acme.NewClient(c.ca, c.zone),
		"svc.example.org", c.approved, nil)
	_, err = sp.Provision(context.Background(), []string{evilServer.URL})
	if !errors.Is(err, ErrNodeRejected) {
		t.Errorf("err = %v, want ErrNodeRejected", err)
	}
}

// The leader refuses key requests from unattested peers: an attacker with
// a self-made key pair but no valid report gets nothing.
func TestLeaderRejectsUnattestedKeyRequest(t *testing.T) {
	c := newCluster(t, 2)
	if _, err := c.sp.Provision(context.Background(), c.urls); err != nil {
		t.Fatal(err)
	}
	leaderURL := c.urls[0]

	attackerKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	attackerCSR, err := x509.CreateCertificateRequest(rand.Reader, &x509.CertificateRequest{
		DNSNames: []string{"svc.example.org"},
	}, attackerKey)
	if err != nil {
		t.Fatal(err)
	}
	// Reuse a legitimate node's report but with the attacker's CSR (and so
	// the attacker's key): the REPORT_DATA binding fails.
	legitimate := c.agents[1].vm.Identity().CSRReport
	forged, err := attest.NewBundle(legitimate, attackerCSR)
	if err != nil {
		t.Fatal(err)
	}
	body, err := forged.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := httptestPost(leaderURL+PathKeyRequest, body)
	if err != nil {
		t.Fatal(err)
	}
	if resp != 403 {
		t.Errorf("forged key request: status %d, want 403", resp)
	}
}

func TestNonLeaderRefusesKeyRequests(t *testing.T) {
	c := newCluster(t, 2)
	if _, err := c.sp.Provision(context.Background(), c.urls); err != nil {
		t.Fatal(err)
	}
	bundle, err := c.agents[1].csrBundle()
	if err != nil {
		t.Fatal(err)
	}
	body, err := bundle.Encode()
	if err != nil {
		t.Fatal(err)
	}
	status, err := httptestPost(c.urls[1]+PathKeyRequest, body)
	if err != nil {
		t.Fatal(err)
	}
	if status != 403 {
		t.Errorf("key request to non-leader: status %d, want 403", status)
	}
}

func TestPersistedCredentialsSurvive(t *testing.T) {
	c := newCluster(t, 1)
	if _, err := c.sp.Provision(context.Background(), c.urls); err != nil {
		t.Fatal(err)
	}
	cert, key, err := c.agents[0].TLSCredentials()
	if err != nil {
		t.Fatal(err)
	}
	loadedKey, loadedCert, err := c.agents[0].LoadPersistentCredentials()
	if err != nil {
		t.Fatalf("LoadPersistentCredentials: %v", err)
	}
	if loadedKey.D.Cmp(key.D) != 0 {
		t.Error("persisted key differs from installed key")
	}
	if !bytes.Equal(loadedCert.Raw, cert) {
		t.Error("persisted certificate differs from installed one")
	}
}

func TestLoadPersistentCredentialsEmpty(t *testing.T) {
	c := newCluster(t, 1)
	if _, _, err := c.agents[0].LoadPersistentCredentials(); !errors.Is(err, ErrNoPersistedCredentials) {
		t.Errorf("err = %v, want ErrNoPersistedCredentials", err)
	}
	if err := c.agents[0].RestoreFromPersist(); !errors.Is(err, ErrNoPersistedCredentials) {
		t.Errorf("restore: err = %v, want ErrNoPersistedCredentials", err)
	}
}

// TestReProvisionRenewsCertificate models the 90-day renewal: a second
// Provision run issues a fresh certificate and redistributes it to all
// nodes, with the service's key pair rotating to the new leader identity.
func TestReProvisionRenewsCertificate(t *testing.T) {
	c := newCluster(t, 2)
	if _, err := c.sp.Provision(context.Background(), c.urls); err != nil {
		t.Fatal(err)
	}
	oldCert, _, err := c.agents[0].TLSCredentials()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.sp.Provision(context.Background(), c.urls); err != nil {
		t.Fatalf("renewal: %v", err)
	}
	newCert0, newKey0, err := c.agents[0].TLSCredentials()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(newCert0, oldCert) {
		t.Error("renewal did not rotate the certificate")
	}
	// Both nodes converge on the renewed credentials.
	newCert1, newKey1, err := c.agents[1].TLSCredentials()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(newCert0, newCert1) || newKey0.D.Cmp(newKey1.D) != 0 {
		t.Error("nodes diverged after renewal")
	}
}

func TestWellKnownBundleBindsTLSKey(t *testing.T) {
	c := newCluster(t, 2)
	if _, err := c.sp.Provision(context.Background(), c.urls); err != nil {
		t.Fatal(err)
	}
	for i, a := range c.agents {
		bundle := c.discoveryBundle(t, i)
		if _, err := c.verifier.VerifyEvidence(context.Background(), bundle); err != nil {
			t.Errorf("agent %d serving bundle: %v", i, err)
		}
		// The bundle's payload is the shared TLS public key.
		_, key, err := a.TLSCredentials()
		if err != nil {
			t.Fatal(err)
		}
		wantDER, err := x509.MarshalPKIXPublicKey(&key.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bundle.Payload, wantDER) {
			t.Errorf("agent %d serving bundle payload is not the TLS key", i)
		}
	}
}

// discoveryBundle fetches agent i's nonce-less well-known bundle.
func (c *cluster) discoveryBundle(t *testing.T, i int) *attest.Bundle {
	t.Helper()
	resp, err := http.Get(c.urls[i] + WellKnownPath)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("agent %d well-known: status %d: %s", i, resp.StatusCode, body)
	}
	bundle, err := attest.DecodeBundle(body)
	if err != nil {
		t.Fatal(err)
	}
	return bundle
}

// joinNode boots a fresh VM, wires an agent around it and registers it
// with the SP — the commissioning half of a scale-out join.
func (c *cluster) joinNode(t *testing.T, seed []byte) (*Agent, string) {
	t.Helper()
	v := c.bootNode(t, seed)
	agent := NewAgent(v, c.verifier, nil)
	server := httptest.NewServer(agent)
	t.Cleanup(server.Close)
	c.sp.Approve(server.URL, v.Identity().CSRReport.ChipID)
	return agent, server.URL
}

// TestProvisionNodeJoins: a node added after full provisioning acquires
// the shared credentials through the single-node §5.3.1 path — attested
// by the SP, key pulled from the standing leader, no CA round trip.
func TestProvisionNodeJoins(t *testing.T) {
	c := newCluster(t, 2)
	res, err := c.sp.Provision(context.Background(), c.urls)
	if err != nil {
		t.Fatal(err)
	}

	joined, joinedURL := c.joinNode(t, []byte{0x77})
	if err := c.sp.ProvisionNode(context.Background(), joinedURL, res.LeaderURL, res.CertDER); err != nil {
		t.Fatalf("ProvisionNode: %v", err)
	}
	if !joined.Ready() {
		t.Fatal("joined node not ready")
	}
	if joined.IsLeader() {
		t.Error("joined node must not be leader")
	}
	cert, key, err := joined.TLSCredentials()
	if err != nil {
		t.Fatal(err)
	}
	_, leaderKey, err := c.agents[0].TLSCredentials()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cert, res.CertDER) || key.D.Cmp(leaderKey.D) != 0 {
		t.Error("joined node did not converge on the shared credentials")
	}
}

// TestProvisionNodeRequiresApproval: a joining address the operator never
// approved (or has since forgotten) is rejected before any key moves.
func TestProvisionNodeRequiresApproval(t *testing.T) {
	c := newCluster(t, 2)
	res, err := c.sp.Provision(context.Background(), c.urls)
	if err != nil {
		t.Fatal(err)
	}
	joined, joinedURL := c.joinNode(t, []byte{0x78})
	c.sp.Forget(joinedURL)
	err = c.sp.ProvisionNode(context.Background(), joinedURL, res.LeaderURL, res.CertDER)
	if !errors.Is(err, ErrUnapprovedNode) {
		t.Errorf("err = %v, want ErrUnapprovedNode", err)
	}
	if joined.Ready() {
		t.Error("unapproved node acquired credentials")
	}
}

// TestBecomeLeaderServesKeyRequests: after re-election, the promoted node
// answers key requests exactly as the original leader did, so joins keep
// working once the first leader is decommissioned.
func TestBecomeLeaderServesKeyRequests(t *testing.T) {
	c := newCluster(t, 2)
	res, err := c.sp.Provision(context.Background(), c.urls)
	if err != nil {
		t.Fatal(err)
	}
	// Decommission the original leader and promote node 1.
	c.sp.Forget(c.urls[0])
	if err := c.agents[1].BecomeLeader(); err != nil {
		t.Fatalf("BecomeLeader: %v", err)
	}
	if !c.agents[1].IsLeader() {
		t.Fatal("promotion did not take")
	}
	joined, joinedURL := c.joinNode(t, []byte{0x79})
	if err := c.sp.ProvisionNode(context.Background(), joinedURL, c.urls[1], res.CertDER); err != nil {
		t.Fatalf("join via promoted leader: %v", err)
	}
	if !joined.Ready() {
		t.Error("join through promoted leader failed")
	}
}

func TestBecomeLeaderBeforeProvisioningFails(t *testing.T) {
	c := newCluster(t, 1)
	if err := c.agents[0].BecomeLeader(); !errors.Is(err, ErrNotReady) {
		t.Errorf("err = %v, want ErrNotReady", err)
	}
}

// TestApproveForgetConcurrent: membership mutations race against
// provisioning without corrupting the approved set (fleet churn hits
// exactly this interleaving).
func TestApproveForgetConcurrent(t *testing.T) {
	c := newCluster(t, 2)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("http://127.0.0.1:%d", 20000+i)
			var chip sev.ChipID
			chip[0] = byte(i)
			c.sp.Approve(url, chip)
			c.sp.Forget(url)
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.sp.Provision(context.Background(), c.urls); err != nil {
			t.Errorf("Provision during churn: %v", err)
		}
	}()
	wg.Wait()
}

func TestECIESRoundTrip(t *testing.T) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("the shared tls private key")
	blob, err := eciesEncrypt(&key.PublicKey, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eciesDecrypt(key, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("roundtrip mismatch")
	}
	// Wrong recipient cannot decrypt.
	other, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eciesDecrypt(other, blob); !errors.Is(err, errDecrypt) {
		t.Errorf("wrong key: err = %v, want errDecrypt", err)
	}
	// Tampered blob fails.
	blob[len(blob)-1] ^= 1
	if _, err := eciesDecrypt(key, blob); !errors.Is(err, errDecrypt) {
		t.Errorf("tampered blob: err = %v, want errDecrypt", err)
	}
	// Garbage fails.
	for _, junk := range [][]byte{nil, {1}, bytes.Repeat([]byte{9}, 40)} {
		if _, err := eciesDecrypt(key, junk); !errors.Is(err, errDecrypt) {
			t.Errorf("junk blob: err = %v, want errDecrypt", err)
		}
	}
}

// httptestPost posts JSON and returns the status code.
func httptestPost(url string, body []byte) (int, error) {
	resp, err := httpPost(url, body)
	if err != nil {
		return 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	return resp.StatusCode, nil
}

func httpPost(url string, body []byte) (*http.Response, error) {
	return http.Post(url, "application/json", bytes.NewReader(body))
}

// TestConcurrentKeyRequests: all non-leader nodes fetch the key from the
// leader at once (the paper's round of POSTs); the leader must serve them
// concurrently and consistently.
func TestConcurrentKeyRequests(t *testing.T) {
	c := newCluster(t, 4)
	// Provision only the leader first so it holds the key, then let the
	// other three race their installs.
	res, err := c.sp.Provision(context.Background(), c.urls[:1])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i-1] = c.agents[i].installCertificate(context.Background(), certMsg{
				CertDER:   res.CertDER,
				LeaderURL: res.LeaderURL,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", i+1, err)
		}
	}
	_, leaderKey, err := c.agents[0].TLSCredentials()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		_, key, err := c.agents[i].TLSCredentials()
		if err != nil {
			t.Errorf("node %d not ready: %v", i, err)
			continue
		}
		if key.D.Cmp(leaderKey.D) != 0 {
			t.Errorf("node %d diverged", i)
		}
	}
}
