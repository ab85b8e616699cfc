package certmgr

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"revelio/attestation"
	"revelio/internal/attest"
	"revelio/internal/registry"
	"revelio/internal/sev"
)

// keyRequest posts bundle to the cluster's leader and returns the status.
func (c *cluster) keyRequest(t *testing.T, bundle *attest.Bundle) int {
	t.Helper()
	body, err := bundle.Encode()
	if err != nil {
		t.Fatal(err)
	}
	status, err := httptestPost(c.urls[0]+PathKeyRequest, body)
	if err != nil {
		t.Fatal(err)
	}
	return status
}

// attested has a genuine, golden-measured VM produce a report over an
// arbitrary payload — the most an attacker in control of what a node
// *sends* (but not of what it runs) could present.
func attested(t *testing.T, a *Agent, payload []byte) *attest.Bundle {
	t.Helper()
	report, err := a.vm.Report(sev.HashOf(payload))
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := attest.NewBundle(report, payload)
	if err != nil {
		t.Fatal(err)
	}
	return bundle
}

// TestLeaderRejectsBadCSRBundles: the key request is the CSR bundle, and
// the leader holds it to everything the SP node does. Each case passes
// every check but the one it names.
func TestLeaderRejectsBadCSRBundles(t *testing.T) {
	c := newCluster(t, 2)
	if _, err := c.sp.Provision(context.Background(), c.urls); err != nil {
		t.Fatal(err)
	}
	joiner, _ := c.joinNode(t, []byte{0x51})
	id := joiner.vm.Identity()

	genuine, err := joiner.csrBundle()
	if err != nil {
		t.Fatal(err)
	}
	if status := c.keyRequest(t, genuine); status != http.StatusOK {
		t.Fatalf("genuine CSR bundle: status %d, want 200", status)
	}

	// A CSR whose self-signature does not verify, under a genuine report
	// that binds exactly those bytes: possession of the key is unproven.
	broken := append([]byte(nil), id.CSRDER...)
	broken[len(broken)-1] ^= 1
	if _, err := x509.ParseCertificateRequest(broken); err != nil {
		t.Fatalf("the broken CSR must still parse for the case to mean anything: %v", err)
	}
	if status := c.keyRequest(t, attested(t, joiner, broken)); status != http.StatusForbidden {
		t.Errorf("broken CSR self-signature: status %d, want 403", status)
	}

	// The joiner's genuine report around another node's genuine CSR.
	other := c.agents[1].vm.Identity()
	swapped, err := attest.NewBundle(id.CSRReport, other.CSRDER)
	if err != nil {
		t.Fatal(err)
	}
	if status := c.keyRequest(t, swapped); status != http.StatusForbidden {
		t.Errorf("report binding another CSR: status %d, want 403", status)
	}

	// A report over the bare public key — the request of the protocol's
	// previous revision — is not a CSR bundle.
	pubDER, err := x509.MarshalPKIXPublicKey(&id.Key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if status := c.keyRequest(t, attested(t, joiner, pubDER)); status != http.StatusForbidden {
		t.Errorf("bare public key under a genuine report: status %d, want 403", status)
	}

	// A well-formed, attested CSR for a key the leader cannot encrypt to.
	_, edKey, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	edCSR, err := x509.CreateCertificateRequest(rand.Reader, &x509.CertificateRequest{}, edKey)
	if err != nil {
		t.Fatal(err)
	}
	if status := c.keyRequest(t, attested(t, joiner, edCSR)); status != http.StatusBadRequest {
		t.Errorf("non-ECDSA CSR: status %d, want 400", status)
	}
}

// TestKeyRequestRejudgesPolicyOnProofHit: the SP node's validation leaves
// the joiner's report in the shared verifier's proof cache, so the
// leader's check of the same report is a hit — and a hit must still judge
// policy. Revoking the measurement between the two (with no cache
// invalidation at all) turns the key request into a 403.
func TestKeyRequestRejudgesPolicyOnProofHit(t *testing.T) {
	trust := registry.New(1)
	c := newClusterUnder(t, 2, trust)
	ctx := context.Background()
	res, err := c.sp.Provision(ctx, c.urls)
	if err != nil {
		t.Fatal(err)
	}
	joiner, joinerURL := c.joinNode(t, []byte{0x52})

	// The SP's half of ProvisionNode: fetch and validate.
	bundle, err := c.sp.fetchCSRBundle(ctx, joinerURL)
	if err != nil {
		t.Fatal(err)
	}
	ev := nodeEvidence{url: joinerURL, bundle: bundle}
	if err := c.sp.validateEvidence(ctx, &ev); err != nil {
		t.Fatalf("SP validation: %v", err)
	}
	before := c.verifier.Stats()

	if err := trust.Revoke(c.golden); err != nil {
		t.Fatal(err)
	}
	if status := c.keyRequest(t, bundle); status != http.StatusForbidden {
		t.Errorf("key request after revocation: status %d, want 403", status)
	}
	after := c.verifier.Stats()
	if after.ReportHits != before.ReportHits+1 || after.ReportsVerified != before.ReportsVerified {
		t.Errorf("the refusal was not a re-judged proof hit: %+v -> %+v", before, after)
	}
	// The node's half of ProvisionNode fails the same way and installs
	// nothing.
	err = joiner.installCertificate(ctx, certMsg{CertDER: res.CertDER, LeaderURL: res.LeaderURL})
	if err == nil || joiner.Ready() {
		t.Errorf("joiner acquired credentials under a revoked measurement (err %v)", err)
	}
}

// TestJoinKeyRequestIsAProofHit: in a deployment whose agents share the SP
// node's verifier, the leader's check of a joiner costs no signature
// verification — the one the SP node paid is the only one.
func TestJoinKeyRequestIsAProofHit(t *testing.T) {
	c := newCluster(t, 2)
	ctx := context.Background()
	res, err := c.sp.Provision(ctx, c.urls)
	if err != nil {
		t.Fatal(err)
	}
	_, joinerURL := c.joinNode(t, []byte{0x53})
	before := c.verifier.Stats()
	if err := c.sp.ProvisionNode(ctx, joinerURL, res.LeaderURL, res.CertDER); err != nil {
		t.Fatal(err)
	}
	got := c.verifier.Stats()
	want := before
	want.ReportsVerified += 2    // the SP on the joiner, the joiner on the leader's response
	want.ChainLinksVerified += 1 // the joiner's VCEK, under the carried ASK
	want.KeysPrepared++          // the joiner's VCEK key, with that walk; the leader's came with its proof
	want.ChainHits++             // the leader's VCEK, proven at provisioning
	want.ReportHits++            // the leader on the joiner
	if got != want {
		t.Errorf("join cost %+v, want %+v", got, want)
	}
}

// TestDiscoveryBundleMintedOnceOnFirstUse: an install signs nothing for
// the well-known endpoint; the first nonce-less request mints the bundle,
// however many arrive at once, and every later one is served the same
// bytes.
func TestDiscoveryBundleMintedOnceOnFirstUse(t *testing.T) {
	c := newCluster(t, 1)
	before := c.mfr.Stats().ReportsSigned
	if _, err := c.sp.Provision(context.Background(), c.urls); err != nil {
		t.Fatal(err)
	}
	if got := c.mfr.Stats().ReportsSigned - before; got != 0 {
		t.Fatalf("provisioning a leader signed %d reports, want 0", got)
	}

	const clients = 50
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			c.agents[0].ServeHTTP(rec, httptest.NewRequest(http.MethodGet, WellKnownPath, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("client %d: status %d", i, rec.Code)
			}
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()
	if got := c.mfr.Stats().ReportsSigned - before; got != 1 {
		t.Errorf("%d concurrent first requests minted %d reports, want 1", clients, got)
	}
	for i, b := range bodies {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("client %d was served a different bundle", i)
		}
	}
	c.discoveryBundle(t, 0)
	if got := c.mfr.Stats().ReportsSigned - before; got != 1 {
		t.Errorf("a later request minted again: %d reports", got)
	}
}

// TestDiscoveryBundleFollowsRotation: a re-provisioning installs a new
// key, and the bundle minted for the old one is not served for it.
func TestDiscoveryBundleFollowsRotation(t *testing.T) {
	c := newCluster(t, 2)
	ctx := context.Background()
	if _, err := c.sp.Provision(ctx, c.urls); err != nil {
		t.Fatal(err)
	}
	old := c.discoveryBundle(t, 1)
	// Re-elect: node 1 leads the renewal, so the shared key changes.
	if _, err := c.sp.Provision(ctx, []string{c.urls[1], c.urls[0]}); err != nil {
		t.Fatal(err)
	}
	before := c.mfr.Stats().ReportsSigned
	for i, a := range c.agents {
		bundle := c.discoveryBundle(t, i)
		_, key, err := a.TLSCredentials()
		if err != nil {
			t.Fatal(err)
		}
		wantDER, err := x509.MarshalPKIXPublicKey(&key.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bundle.Payload, wantDER) || bytes.Equal(bundle.Payload, old.Payload) {
			t.Errorf("agent %d serves a bundle for the key before the rotation", i)
		}
		if _, err := c.verifier.VerifyEvidence(ctx, bundle); err != nil {
			t.Errorf("agent %d: %v", i, err)
		}
	}
	if got := c.mfr.Stats().ReportsSigned - before; got != 2 {
		t.Errorf("two agents re-minted %d bundles after the rotation, want 2", got)
	}
}

// TestDiscoveryBundleFailureIsNotCached: when the AMD-SP refuses the
// report the request fails, and the next one mints as if it were the
// first.
func TestDiscoveryBundleFailureIsNotCached(t *testing.T) {
	c := newCluster(t, 1)
	if _, err := c.sp.Provision(context.Background(), c.urls); err != nil {
		t.Fatal(err)
	}
	a := c.agents[0]
	genuine := a.report
	a.report = func(sev.ReportData) (*sev.Report, error) { return nil, errors.New("amd-sp busy") }
	rec := httptest.NewRecorder()
	a.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, WellKnownPath, nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("failed report: status %d, want 500", rec.Code)
	}
	a.report = genuine
	if _, err := c.verifier.VerifyEvidence(context.Background(), c.discoveryBundle(t, 0)); err != nil {
		t.Errorf("request after the failure: %v", err)
	}
}

// TestServingCertificateBuiltOncePerInstall: every handshake between two
// installs is handed the same parsed certificate; a rotation swaps it; and
// TLSCredentials still hands out a copy the caller may scribble on.
func TestServingCertificateBuiltOncePerInstall(t *testing.T) {
	c := newCluster(t, 2)
	ctx := context.Background()
	if _, err := c.agents[1].ServingCertificate(); !errors.Is(err, ErrNotReady) {
		t.Errorf("before provisioning: err = %v, want ErrNotReady", err)
	}
	if _, err := c.sp.Provision(ctx, c.urls); err != nil {
		t.Fatal(err)
	}
	a := c.agents[1]
	first, err := a.ServingCertificate()
	if err != nil {
		t.Fatal(err)
	}
	again, err := a.ServingCertificate()
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Error("ServingCertificate rebuilt the certificate between installs")
	}
	certDER, key, err := a.TLSCredentials()
	if err != nil {
		t.Fatal(err)
	}
	if first.Leaf == nil || !bytes.Equal(first.Leaf.Raw, certDER) || len(first.Certificate) != 1 ||
		!bytes.Equal(first.Certificate[0], certDER) || first.PrivateKey != key {
		t.Error("serving certificate does not carry the installed credentials with a parsed leaf")
	}
	certDER[10] ^= 0xff
	if fresh, _, _ := a.TLSCredentials(); bytes.Equal(fresh, certDER) || !bytes.Equal(fresh, first.Certificate[0]) {
		t.Error("TLSCredentials handed out the installed DER itself")
	}

	if _, err := c.sp.Provision(ctx, c.urls); err != nil {
		t.Fatal(err)
	}
	rotated, err := a.ServingCertificate()
	if err != nil {
		t.Fatal(err)
	}
	if rotated == first || bytes.Equal(rotated.Leaf.Raw, first.Leaf.Raw) {
		t.Error("rotation did not swap the serving certificate")
	}
	if first.Leaf == nil || len(first.Certificate) != 1 {
		t.Error("rotation modified the certificate earlier handshakes still hold")
	}
}

// TestUndecodableBundleIsARefusal: bytes that are not a bundle, where a
// node's CSR bundle or the leader's key response belongs, refuse that
// peer under the attestation taxonomy — ErrNodeRejected at the SP,
// ErrPeerRejected at the joiner — instead of surfacing as a bare decode
// error. A node that cannot be reached is not refused.
func TestUndecodableBundleIsARefusal(t *testing.T) {
	c := newCluster(t, 1)
	ctx := context.Background()
	garbled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "{")
	}))
	t.Cleanup(garbled.Close)
	c.sp.Approve(garbled.URL, c.approved[c.urls[0]])

	for name, provision := range map[string]func() error{
		"Provision": func() error {
			_, err := c.sp.Provision(ctx, []string{garbled.URL})
			return err
		},
		"ProvisionNode": func() error { return c.sp.ProvisionNode(ctx, garbled.URL, c.urls[0], nil) },
	} {
		if err := provision(); !errors.Is(err, ErrNodeRejected) || !errors.Is(err, attestation.ErrEvidenceInvalid) {
			t.Errorf("%s of a node answering %q: %v, want ErrNodeRejected under ErrEvidenceInvalid", name, "{", err)
		}
	}

	if _, err := c.agents[0].fetchKeyFromLeader(ctx, garbled.URL); !errors.Is(err, ErrPeerRejected) || !errors.Is(err, attestation.ErrEvidenceInvalid) {
		t.Errorf("key from a leader answering %q: %v, want ErrPeerRejected under ErrEvidenceInvalid", "{", err)
	}

	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	c.sp.Approve(gone.URL, c.approved[c.urls[0]])
	if _, err := c.sp.Provision(ctx, []string{gone.URL}); err == nil || errors.Is(err, ErrNodeRejected) || errors.Is(err, attestation.ErrEvidenceInvalid) {
		t.Errorf("Provision of an unreachable node: %v, want a transport failure, not a refusal", err)
	}
}
