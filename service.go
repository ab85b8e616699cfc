package revelio

import (
	"context"
	"crypto/x509"
	"fmt"
	"net/http"
	"sync"

	"revelio/attestation"
	"revelio/attestation/snp"
	"revelio/internal/acme"
	"revelio/internal/core"
)

// Option configures a Service.
type Option func(*serviceConfig)

type serviceConfig struct {
	profile Profile
	build   []BuildOption
	domain  string
	trust   *TrustRegistry
}

// WithProfile selects the service image profile (default
// ProfileCryptPad).
func WithProfile(p Profile) Option { return func(c *serviceConfig) { c.profile = p } }

// WithDomain sets the service's web domain (default
// "service.example.org").
func WithDomain(domain string) Option { return func(c *serviceConfig) { c.domain = domain } }

// WithImage customizes the reproducible image build (name, version,
// firmware).
func WithImage(opts ...BuildOption) Option {
	return func(c *serviceConfig) { c.build = append(c.build, opts...) }
}

// WithTrustRegistry judges measurements against a live trusted registry
// instead of the image's own golden value. Provisioning fails closed
// until the registry trusts the deployment's measurement — the §3.4.7
// delegated-audit flow.
func WithTrustRegistry(reg *TrustRegistry) Option {
	return func(c *serviceConfig) { c.trust = reg }
}

// Service is the SDK's front door: one attestable confidential-VM web
// service — image built from sources, a node booted through measured
// direct boot, certificates provisioned with attestation, HTTPS served
// from inside the TEE — driven through a context-first lifecycle.
//
// The zero-dependency path is three calls:
//
//	svc, err := revelio.New(ctx, revelio.WithDomain("pad.example.org"))
//	report, err := svc.Provision(ctx)
//	err = svc.ServeWeb(app)
//
// Verifier returns the SEV-SNP verifier the service runs on: the one
// relying party, which verifies report bundles and checks their
// REPORT_DATA binding itself. snp.NewNodeProvider pairs it with a
// node's VM to issue them.
//
// A Service is one staged deployment of a single node. Membership
// that changes under traffic — joins, removals, leader re-election,
// measured-image rollouts, an attested gateway in front — belongs to a
// Fleet (NewFleet), the one membership owner.
type Service struct {
	d *core.Deployment

	// opMu serializes Provision, ServeWeb and Close: the deployment is
	// not safe for concurrent mutation.
	opMu sync.Mutex

	closeOnce sync.Once
}

// New builds the image, launches the node, and starts the control
// plane. The service is not yet provisioned (Provision) nor serving
// (ServeWeb). Cancelling ctx aborts construction; a partially built
// deployment is torn down before New returns.
func New(ctx context.Context, opts ...Option) (*Service, error) {
	cfg := serviceConfig{
		profile: ProfileCryptPad,
		domain:  "service.example.org",
	}
	for _, o := range opts {
		o(&cfg)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("revelio: new service: %w", err)
	}
	spec, imgReg, fwVersion, err := resolveSpec(cfg.profile, cfg.build...)
	if err != nil {
		return nil, err
	}
	d, err := core.New(core.Config{
		Spec:            spec,
		Registry:        imgReg,
		FirmwareVersion: fwVersion,
		Nodes:           1,
		Domain:          cfg.domain,
		TrustRegistry:   cfg.trust,
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		d.Close()
		return nil, fmt.Errorf("revelio: new service: %w", err)
	}
	return &Service{d: d}, nil
}

// Golden returns the deployment's current golden measurement — what the
// provider publishes and auditors verify by rebuilding from sources.
func (s *Service) Golden() Measurement { return s.d.Golden }

// Verifier returns the service's SEV-SNP verifier: the full
// verification pipeline with its fast-path caches, shared by the SP
// node, the agents and any web extension built over this deployment.
func (s *Service) Verifier() *snp.Verifier { return s.d.Verifier }

// CertSource returns the deployment's KDS-backed certificate source —
// what an independent relying party (an auditor's own verifier) plugs
// into snp.NewVerifier together with its own trust policy.
func (s *Service) CertSource() attestation.CertSource { return s.d.KDSClient }

// CARootPool returns the certificate pool browsers trust (the simulated
// Let's Encrypt root).
func (s *Service) CARootPool() *x509.CertPool { return s.d.CARootPool() }

// Node returns node i.
func (s *Service) Node(i int) *Node { return s.d.Nodes[i] }

// WebAddr returns node i's HTTPS address (host:port), or "" before
// ServeWeb.
func (s *Service) WebAddr(i int) string { return s.d.Nodes[i].WebAddr() }

// Provision runs the SP node's certificate-management flow (Fig 4)
// across all nodes: attest every guest, obtain the shared certificate
// for the elected leader's CSR, and distribute it over mutually
// attested channels. Evidence retrieval, validation and the non-leader
// pushes each run over every node at once. No certificate is requested
// unless every node passed, and when nodes fail the first failing
// node's error is returned. Failures map onto the attestation taxonomy
// (errors.Is against attestation.Err*).
func (s *Service) Provision(ctx context.Context) (*ProvisionReport, error) {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	return s.d.ProvisionCertificates(ctx)
}

// ServeWeb opens every node's HTTPS front end with the provisioned
// credentials, every node at once. app builds the per-node application
// handler (nil serves only the well-known attestation endpoint) and may
// be called for several nodes at once; the attestation endpoint is
// always mounted. After Close it fails and opens nothing.
func (s *Service) ServeWeb(app func(*Node) http.Handler) error {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	return s.d.StartWeb(app)
}

// ObtainCertificate runs a DNS-01 issuance against the deployment's CA
// for an arbitrary CSR — the capability anyone controlling the
// domain's DNS has against a public CA. Demos use it to play the
// attacker with a browser-valid certificate; Revelio's client-side
// attestation is what still catches them.
func (s *Service) ObtainCertificate(ctx context.Context, domain string, csrDER []byte) ([]byte, error) {
	return acme.NewClient(s.d.CA, s.d.Zone).ObtainCertificate(ctx, domain, csrDER)
}

// Close tears the service down, after any Provision or ServeWeb in
// flight. Idempotent and safe for concurrent use.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.opMu.Lock()
		defer s.opMu.Unlock()
		s.d.Close()
	})
}
