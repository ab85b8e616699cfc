package certmgr

import (
	"bytes"
	"context"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"revelio/internal/acme"
	"revelio/internal/attest"
	"revelio/internal/par"
	"revelio/internal/sev"
)

var (
	// ErrNodeRejected reports a node that failed the SP's attestation.
	ErrNodeRejected = errors.New("certmgr: node failed attestation")
	// ErrUnapprovedNode reports a node address or chip outside the SP's
	// approved set (§5.3.1's impersonation defence).
	ErrUnapprovedNode = errors.New("certmgr: node not in approved set")
	// ErrNoNodes reports provisioning with an empty node list.
	ErrNoNodes = errors.New("certmgr: no nodes to provision")
)

// Timings decomposes one provisioning run, mirroring Table 2's rows.
// Each row is the wall time of its phase run over all nodes: evidence is
// retrieved from every node at once, then validated at once, and the
// certificate is pushed to the leader and then to the others at once.
type Timings struct {
	EvidenceRetrieval  time.Duration
	EvidenceValidation time.Duration
	CertGeneration     time.Duration
	CertDistribution   time.Duration
}

// ProvisionResult reports a completed run.
type ProvisionResult struct {
	LeaderURL string
	CertDER   []byte
	Timings   Timings
}

// SPNode is the service provider's isolated machine: it holds the DNS
// credentials (through the certbot client), the approved node set, and
// the golden measurements, and orchestrates certificate issuance and
// distribution.
//
// The approved set is mutable: fleets under churn Approve a node before
// launching it and Forget it at decommission time, so a removed node's
// address can never rejoin with a different chip unnoticed.
type SPNode struct {
	verifier *attest.Verifier
	certbot  *acme.Client
	domain   string
	httpc    *http.Client

	mu       sync.RWMutex
	approved map[string]sev.ChipID // node base URL -> expected chip
}

// NewSPNode creates the SP orchestrator. approved maps each node's base
// URL to the chip it must run on.
func NewSPNode(verifier *attest.Verifier, certbot *acme.Client, domain string,
	approved map[string]sev.ChipID, httpc *http.Client) *SPNode {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	cp := make(map[string]sev.ChipID, len(approved))
	for k, v := range approved {
		cp[k] = v
	}
	return &SPNode{verifier: verifier, certbot: certbot, domain: domain, approved: cp, httpc: httpc}
}

// Approve admits a node address/chip pair to the approved set — the SP
// operator's act of commissioning a machine before it may join the fleet.
func (sp *SPNode) Approve(nodeURL string, chip sev.ChipID) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.approved[nodeURL] = chip
}

// Forget removes a node address from the approved set (decommissioning).
// Subsequent provisioning attempts involving the address fail with
// ErrUnapprovedNode.
func (sp *SPNode) Forget(nodeURL string) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	delete(sp.approved, nodeURL)
}

func (sp *SPNode) approvedChip(nodeURL string) (sev.ChipID, bool) {
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	chip, ok := sp.approved[nodeURL]
	return chip, ok
}

type nodeEvidence struct {
	url    string
	bundle *attest.Bundle
	report *sev.Report
	csr    *x509.CertificateRequest
}

// Provision runs the full Fig 4 flow over the given node URLs: retrieve
// report-CSR bundles, attest every node, obtain the certificate for the
// leader's CSR, and distribute it (each non-leader then pulls the key
// from the leader as a side effect of the distribution POST).
//
// The phases run in that order, and each runs over every node at once.
// Nothing is obtained or pushed unless every node passed validation, and
// when nodes fail, the first failing node in URL order decides the error.
func (sp *SPNode) Provision(ctx context.Context, nodeURLs []string) (*ProvisionResult, error) {
	if len(nodeURLs) == 0 {
		return nil, ErrNoNodes
	}

	// Step 1: retrieve evidence.
	t0 := time.Now()
	evidence := make([]nodeEvidence, len(nodeURLs))
	err := par.Each(len(nodeURLs), func(i int) error {
		bundle, err := sp.fetchCSRBundle(ctx, nodeURLs[i])
		if err != nil {
			return fmt.Errorf("certmgr: fetch csr bundle from %s: %w", nodeURLs[i], err)
		}
		evidence[i] = nodeEvidence{url: nodeURLs[i], bundle: bundle}
		return nil
	})
	if err != nil {
		return nil, err
	}
	retrieval := time.Since(t0)

	// Step 2: validate evidence — measurement, chain, REPORT_DATA/CSR
	// binding, and the chip/address allow-list.
	t0 = time.Now()
	if err := par.Each(len(evidence), func(i int) error {
		return sp.validateEvidence(ctx, &evidence[i])
	}); err != nil {
		return nil, err
	}
	validation := time.Since(t0)

	// Step 3: pick the leader and obtain the certificate for its CSR.
	leader := evidence[0]
	t0 = time.Now()
	certDER, err := sp.certbot.ObtainCertificate(ctx, sp.domain, leader.bundle.Payload)
	if err != nil {
		return nil, fmt.Errorf("certmgr: obtain certificate: %w", err)
	}
	generation := time.Since(t0)

	// Step 4: distribute the certificate — to the leader first, so it is
	// ready to answer key requests before any other node learns its
	// address, then to the others at once.
	t0 = time.Now()
	msg := certMsg{CertDER: certDER, LeaderURL: leader.url}
	push := func(i int) error {
		if err := sp.pushCertificate(ctx, evidence[i].url, msg); err != nil {
			return fmt.Errorf("certmgr: distribute to %s: %w", evidence[i].url, err)
		}
		return nil
	}
	if err := push(0); err != nil {
		return nil, err
	}
	if err := par.Each(len(evidence)-1, func(i int) error { return push(i + 1) }); err != nil {
		return nil, err
	}
	distribution := time.Since(t0)

	return &ProvisionResult{
		LeaderURL: leader.url,
		CertDER:   certDER,
		Timings: Timings{
			EvidenceRetrieval:  retrieval,
			EvidenceValidation: validation,
			CertGeneration:     generation,
			CertDistribution:   distribution,
		},
	}, nil
}

// validateEvidence runs the step-2 judgment on one node: attestation of
// the CSR bundle, chip/address allow-list membership, and CSR
// well-formedness. On success ev.report and ev.csr are populated.
func (sp *SPNode) validateEvidence(ctx context.Context, ev *nodeEvidence) error {
	res, csr, err := verifyCSRBundle(ctx, sp.verifier, ev.bundle)
	if err != nil {
		return fmt.Errorf("%w: %s: %w", ErrNodeRejected, ev.url, err)
	}
	wantChip, ok := sp.approvedChip(ev.url)
	if !ok {
		return fmt.Errorf("%w: address %s", ErrUnapprovedNode, ev.url)
	}
	if res.Report.ChipID != wantChip {
		return fmt.Errorf("%w: %s runs on unexpected chip", ErrUnapprovedNode, ev.url)
	}
	ev.report = res.Report
	ev.csr = csr
	return nil
}

// ProvisionNode runs the Fig 4 flow for a single node joining an already
// provisioned deployment (§5.3.1 under churn): the SP attests the
// newcomer exactly as during full provisioning, then distributes the
// *current* certificate, pointing the node at the standing leader for the
// key acquisition. No CA round trip happens — the join cost is evidence
// retrieval + validation + one distribution POST, which is what keeps
// scale-out cheap (Table 5's join latency).
func (sp *SPNode) ProvisionNode(ctx context.Context, nodeURL, leaderURL string, certDER []byte) error {
	if nodeURL == "" {
		return ErrNoNodes
	}
	bundle, err := sp.fetchCSRBundle(ctx, nodeURL)
	if err != nil {
		return fmt.Errorf("certmgr: fetch csr bundle from %s: %w", nodeURL, err)
	}
	ev := nodeEvidence{url: nodeURL, bundle: bundle}
	if err := sp.validateEvidence(ctx, &ev); err != nil {
		return err
	}
	if err := sp.pushCertificate(ctx, nodeURL, certMsg{CertDER: certDER, LeaderURL: leaderURL}); err != nil {
		return fmt.Errorf("certmgr: distribute to %s: %w", nodeURL, err)
	}
	return nil
}

func (sp *SPNode) fetchCSRBundle(ctx context.Context, baseURL string) (*attest.Bundle, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+PathCSRBundle, nil)
	if err != nil {
		return nil, err
	}
	resp, err := sp.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	bundle, err := attest.DecodeBundle(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNodeRejected, err)
	}
	return bundle, nil
}

func (sp *SPNode) pushCertificate(ctx context.Context, baseURL string, msg certMsg) error {
	body, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		baseURL+PathCertificate, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := sp.httpc.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusNoContent {
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	return nil
}
