// Package certmgr implements Revelio's certificate management protocol
// (§5.3.1, Fig 4): the SP node attests every guest, picks a leader whose
// CSR the CA signs, and the nodes acquire the shared TLS private key from
// the leader over a mutually attested exchange — so the key only ever
// travels between VMs that have proven their measured state, encrypted to
// an attested public key, and lands on the sealed persistent volume.
//
// A node has one piece of identity evidence, the report over its CSR, and
// shows the same bundle to both judges: the SP node fetches it, and the
// node's key request to the leader carries it again. The CSR embeds the
// public key and is signed with the private one, so the leader learns from
// it exactly what a separate report over the bare key would tell it, and
// passes the same judgment the SP node did (verifyCSRBundle). Where SP and
// leader share a verifier — every core.Deployment — the second judgment is
// a report-proof hit: no signature check, policy judged afresh.
//
// The attestation endpoint's nonce-less discovery bundle is minted by the
// first request that asks for it after an install, not by the install: a
// node joining a fleet behind a gateway is only ever asked nonce-bound
// questions, and never pays for that report.
package certmgr

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/tls"
	"crypto/x509"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"revelio/internal/attest"
	"revelio/internal/sev"
	"revelio/internal/vm"
)

// HTTP paths the node agent serves (the nginx+FastCGI CGI scripts of the
// paper's prototype).
const (
	PathCSRBundle   = "/revelio/csr-bundle"
	PathCertificate = "/revelio/certificate"
	PathKeyRequest  = "/revelio/key-request"
	// WellKnownPath serves the attestation bundle end-users fetch
	// (§5.3.2, "a well-known URL, as in the case of robots.txt").
	WellKnownPath = "/.well-known/revelio/attestation"
)

var (
	// ErrNotReady reports an agent that has not completed provisioning.
	ErrNotReady = errors.New("certmgr: agent not provisioned yet")
	// ErrNotLeader reports a key request sent to a non-leader.
	ErrNotLeader = errors.New("certmgr: this node is not the leader")
	// ErrPeerRejected reports a peer that failed mutual attestation.
	ErrPeerRejected = errors.New("certmgr: peer failed attestation")
	// ErrCertKeyMismatch reports a certificate whose public key does not
	// match the distributed private key.
	ErrCertKeyMismatch = errors.New("certmgr: certificate does not match private key")
)

// certMsg is the SP node's certificate-distribution POST body.
type certMsg struct {
	CertDER   []byte `json:"certDer"`
	LeaderURL string `json:"leaderUrl"`
}

// Agent runs inside a Revelio VM and participates in the Fig 4 protocol.
type Agent struct {
	vm       *vm.VM
	verifier *attest.Verifier
	httpc    *http.Client
	// report asks the AMD-SP for a report (vm.Report); a field so tests
	// can make the request fail.
	report func(sev.ReportData) (*sev.Report, error)

	mu       sync.Mutex
	tlsKey   *ecdsa.PrivateKey
	isLeader bool
	ready    bool
	// serving is the installed credential in the shape TLS front ends
	// resolve per handshake, built once per install with its leaf parsed
	// so no handshake re-parses it. Never modified after it is published.
	serving *tls.Certificate
	// wellKnown is what the attestation endpoint serves for the installed
	// key; every install replaces it.
	wellKnown *wellKnown
}

// wellKnown is the attestation endpoint's state for one installed TLS key.
type wellKnown struct {
	// pubDER is the shared TLS public key every served report binds.
	pubDER []byte

	// mu makes the first nonce-less request the only one that mints:
	// concurrent first requests queue behind it and are served its result.
	mu sync.Mutex
	// discoveryJSON is the nonce-less bundle's JSON encoding — nil until a
	// request asks for it, and still nil after a failed attempt.
	discoveryJSON []byte
}

// NewAgent creates the agent for a booted VM. The verifier carries the
// golden values planted at build time; httpc is the guest's outbound
// client (nil selects http.DefaultClient).
func NewAgent(v *vm.VM, verifier *attest.Verifier, httpc *http.Client) *Agent {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return &Agent{vm: v, verifier: verifier, httpc: httpc, report: v.Report}
}

// ServeHTTP implements http.Handler for the agent's control endpoints.
func (a *Agent) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodGet && r.URL.Path == PathCSRBundle:
		a.handleCSRBundle(w)
	case r.Method == http.MethodPost && r.URL.Path == PathCertificate:
		a.handleCertificate(w, r)
	case r.Method == http.MethodPost && r.URL.Path == PathKeyRequest:
		a.handleKeyRequest(w, r)
	case r.Method == http.MethodGet && r.URL.Path == WellKnownPath:
		a.handleWellKnown(w, r)
	default:
		http.NotFound(w, r)
	}
}

var _ http.Handler = (*Agent)(nil)

// csrBundle is the node's identity evidence: its CSR under the report
// that binds it, as shown to the SP node and to the leader.
func (a *Agent) csrBundle() (*attest.Bundle, error) {
	id := a.vm.Identity()
	return attest.NewBundle(id.CSRReport, id.CSRDER)
}

func (a *Agent) handleCSRBundle(w http.ResponseWriter) {
	bundle, err := a.csrBundle()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, bundle)
}

// verifyCSRBundle is the judgment the SP node and the leader both pass on
// a node's identity evidence: the report verifies under the current
// policy, its REPORT_DATA binds the CSR, and the CSR is well-formed and
// signed by the key it carries — which proves the measured VM holds that
// key's private half.
func verifyCSRBundle(ctx context.Context, verifier *attest.Verifier, b *attest.Bundle) (*attest.Result, *x509.CertificateRequest, error) {
	res, err := verifier.VerifyEvidence(ctx, b)
	if err != nil {
		return nil, nil, err
	}
	csr, err := x509.ParseCertificateRequest(b.Payload)
	if err != nil {
		return nil, nil, fmt.Errorf("bad csr: %w", err)
	}
	if err := csr.CheckSignature(); err != nil {
		return nil, nil, fmt.Errorf("csr signature: %w", err)
	}
	return res, csr, nil
}

func (a *Agent) handleCertificate(w http.ResponseWriter, r *http.Request) {
	var msg certMsg
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&msg); err != nil {
		http.Error(w, "bad request", http.StatusBadRequest)
		return
	}
	if err := a.installCertificate(r.Context(), msg); err != nil {
		http.Error(w, err.Error(), http.StatusForbidden)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// installCertificate implements the node side of distribution: if the
// certificate matches our own identity key we are the leader; otherwise
// fetch the shared private key from the leader with mutual attestation.
func (a *Agent) installCertificate(ctx context.Context, msg certMsg) error {
	cert, err := x509.ParseCertificate(msg.CertDER)
	if err != nil {
		return fmt.Errorf("certmgr: parse certificate: %w", err)
	}
	certPub, ok := cert.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return fmt.Errorf("certmgr: unexpected cert key type %T", cert.PublicKey)
	}

	id := a.vm.Identity()
	if certPub.Equal(&id.Key.PublicKey) {
		// We are the leader: the cert was issued for our CSR.
		return a.finishInstall(cert, id.Key, true)
	}

	// Non-leader: request the key from the leader.
	key, err := a.fetchKeyFromLeader(ctx, msg.LeaderURL)
	if err != nil {
		return err
	}
	if !certPub.Equal(&key.PublicKey) {
		return ErrCertKeyMismatch
	}
	return a.finishInstall(cert, key, false)
}

func (a *Agent) fetchKeyFromLeader(ctx context.Context, leaderURL string) (*ecdsa.PrivateKey, error) {
	id := a.vm.Identity()
	reqBundle, err := a.csrBundle()
	if err != nil {
		return nil, err
	}
	body, err := reqBundle.Encode()
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		leaderURL+PathKeyRequest, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.httpc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("certmgr: contact leader: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("certmgr: leader refused key request: status %d", resp.StatusCode)
	}
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	respBundle, err := attest.DecodeBundle(respBody)
	if err != nil {
		return nil, fmt.Errorf("%w: leader: %w", ErrPeerRejected, err)
	}
	// Attest the leader before trusting the payload.
	if _, err := a.verifier.VerifyEvidence(ctx, respBundle); err != nil {
		return nil, fmt.Errorf("%w: leader: %w", ErrPeerRejected, err)
	}
	keyDER, err := eciesDecrypt(id.Key, respBundle.Payload)
	if err != nil {
		return nil, err
	}
	key, err := x509.ParseECPrivateKey(keyDER)
	if err != nil {
		return nil, fmt.Errorf("certmgr: parse distributed key: %w", err)
	}
	return key, nil
}

func (a *Agent) finishInstall(cert *x509.Certificate, key *ecdsa.PrivateKey, leader bool) error {
	// Persist the credentials on the sealed volume before serving
	// (the paper's encrypted-partition install step).
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		return err
	}
	if err := a.storePersistentCredentials(keyDER, cert.Raw); err != nil {
		return err
	}
	pubDER, err := x509.MarshalPKIXPublicKey(&key.PublicKey)
	if err != nil {
		return err
	}
	serving := &tls.Certificate{Certificate: [][]byte{cert.Raw}, PrivateKey: key, Leaf: cert}

	a.mu.Lock()
	defer a.mu.Unlock()
	a.tlsKey = key
	a.isLeader = leader
	a.serving = serving
	a.wellKnown = &wellKnown{pubDER: pubDER}
	a.ready = true
	return nil
}

// storePersistentCredentials writes length-prefixed key and certificate
// blobs at the start of the encrypted persistent volume.
func (a *Agent) storePersistentCredentials(keyDER, certDER []byte) error {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(keyDER)))
	buf = append(buf, keyDER...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(certDER)))
	buf = append(buf, certDER...)
	if err := a.vm.Persist().WriteAt(buf, 0); err != nil {
		return fmt.Errorf("certmgr: persist credentials: %w", err)
	}
	return nil
}

// ErrNoPersistedCredentials reports an empty or unparseable credential
// area on the persistent volume.
var ErrNoPersistedCredentials = errors.New("certmgr: no persisted credentials")

// LoadPersistentCredentials reads what a previous provisioning run stored
// — the rebooted node's alternative to re-running the Fig 4 protocol.
// It only succeeds if the VM unsealed the same volume, i.e. booted with
// the identical measurement.
func (a *Agent) LoadPersistentCredentials() (*ecdsa.PrivateKey, *x509.Certificate, error) {
	readBlob := func(off int64, limit uint32) ([]byte, int64, error) {
		hdr := make([]byte, 4)
		if err := a.vm.Persist().ReadAt(hdr, off); err != nil {
			return nil, 0, err
		}
		n := binary.LittleEndian.Uint32(hdr)
		if n == 0 || n > limit {
			return nil, 0, ErrNoPersistedCredentials
		}
		blob := make([]byte, n)
		if err := a.vm.Persist().ReadAt(blob, off+4); err != nil {
			return nil, 0, err
		}
		return blob, off + 4 + int64(n), nil
	}
	keyDER, next, err := readBlob(0, 4096)
	if err != nil {
		return nil, nil, err
	}
	key, err := x509.ParseECPrivateKey(keyDER)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: bad key: %v", ErrNoPersistedCredentials, err)
	}
	certDER, _, err := readBlob(next, 16384)
	if err != nil {
		return nil, nil, err
	}
	cert, err := x509.ParseCertificate(certDER)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: bad certificate: %v", ErrNoPersistedCredentials, err)
	}
	return key, cert, nil
}

// RestoreFromPersist brings a rebooted node back into service from the
// sealed volume, without contacting the SP node or the leader. The node
// resumes as a non-leader (leader election happens at provisioning time);
// run Provision again to rotate certificates or re-elect.
func (a *Agent) RestoreFromPersist() error {
	key, cert, err := a.LoadPersistentCredentials()
	if err != nil {
		return err
	}
	return a.finishInstall(cert, key, false)
}

func (a *Agent) handleKeyRequest(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	leader, ready, key := a.isLeader, a.ready, a.tlsKey
	a.mu.Unlock()
	if !ready {
		http.Error(w, ErrNotReady.Error(), http.StatusServiceUnavailable)
		return
	}
	if !leader {
		http.Error(w, ErrNotLeader.Error(), http.StatusForbidden)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, "bad request", http.StatusBadRequest)
		return
	}
	reqBundle, err := attest.DecodeBundle(body)
	if err != nil {
		http.Error(w, "bad bundle", http.StatusBadRequest)
		return
	}
	// Mutual attestation: the leader validates the requester exactly as
	// the SP node did, on the same evidence, under the policy as it is
	// now — a measurement revoked since the SP looked is refused here.
	_, csr, err := verifyCSRBundle(r.Context(), a.verifier, reqBundle)
	if err != nil {
		http.Error(w, ErrPeerRejected.Error(), http.StatusForbidden)
		return
	}
	peerPub, ok := csr.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		http.Error(w, "bad peer key type", http.StatusBadRequest)
		return
	}

	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	encKey, err := eciesEncrypt(peerPub, keyDER)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	report, err := a.report(sev.HashOf(encKey))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	respBundle, err := attest.NewBundle(report, encKey)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, respBundle)
}

// handleWellKnown serves the attestation bundle. Without a nonce the
// discovery bundle is returned — one report binding the TLS key, minted by
// the first such request after an install and served to every later one
// (enough for discovery); with ?nonce=<hex> a *fresh* report is produced
// whose REPORT_DATA binds both the TLS key and the caller's nonce,
// defeating replay of recorded bundles.
func (a *Agent) handleWellKnown(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	wk := a.wellKnown
	a.mu.Unlock()
	if wk == nil {
		http.Error(w, ErrNotReady.Error(), http.StatusServiceUnavailable)
		return
	}
	nonceHex := r.URL.Query().Get("nonce")
	if nonceHex == "" {
		bundleJSON, err := a.discoveryBundle(wk)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(bundleJSON)
		return
	}
	nonce, err := hex.DecodeString(nonceHex)
	if err != nil || len(nonce) == 0 || len(nonce) > 64 {
		http.Error(w, "bad nonce", http.StatusBadRequest)
		return
	}
	report, err := a.report(sev.HashOfWithNonce(wk.pubDER, nonce))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	fresh, err := attest.NewBundle(report, wk.pubDER)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, fresh)
}

// discoveryBundle returns wk's nonce-less bundle, minting it if no request
// has yet. A failed attempt leaves nothing behind, so the next request
// tries again.
func (a *Agent) discoveryBundle(wk *wellKnown) ([]byte, error) {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if wk.discoveryJSON != nil {
		return wk.discoveryJSON, nil
	}
	report, err := a.report(sev.HashOf(wk.pubDER))
	if err != nil {
		return nil, err
	}
	bundle, err := attest.NewBundle(report, wk.pubDER)
	if err != nil {
		return nil, err
	}
	bundleJSON, err := json.Marshal(bundle)
	if err != nil {
		return nil, err
	}
	wk.discoveryJSON = bundleJSON
	return bundleJSON, nil
}

// Ready reports whether provisioning completed.
func (a *Agent) Ready() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ready
}

// IsLeader reports whether this agent holds the leader role.
func (a *Agent) IsLeader() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.isLeader
}

// BecomeLeader promotes a provisioned agent to the leader role — the
// fleet-level re-election that runs when the standing leader is removed.
// Promotion is sound for any ready node: every provisioned agent already
// holds the shared TLS key behind the certificate, which is the only
// capability the leader role confers (answering mutually attested key
// requests from joining nodes).
func (a *Agent) BecomeLeader() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.ready {
		return ErrNotReady
	}
	a.isLeader = true
	return nil
}

// TLSCredentials returns the shared certificate and private key once
// ready — what the HTTPS front end (nginx) is restarted with. The DER is
// the caller's own copy.
func (a *Agent) TLSCredentials() (certDER []byte, key *ecdsa.PrivateKey, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.ready {
		return nil, nil, ErrNotReady
	}
	return append([]byte(nil), a.serving.Leaf.Raw...), a.tlsKey, nil
}

// ServingCertificate returns the installed credential as a tls.Certificate
// with its leaf parsed — the per-handshake shape TLS-terminating front
// ends (the node web tier, an attested gateway) resolve. Every call
// between two installs returns the same value, shared with every other
// caller: treat it as read-only, as crypto/tls does.
func (a *Agent) ServingCertificate() (*tls.Certificate, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.ready {
		return nil, ErrNotReady
	}
	return a.serving, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
