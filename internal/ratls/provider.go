package ratls

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"fmt"
	"math/big"
	"time"

	"revelio/internal/attest"
)

// OIDAttestationEvidence is the X.509 extension carrying the JSON report
// bundle (attest.Bundle) whose payload is the certificate's public key —
// the same bytes a node's well-known endpoint serves. A certificate
// minted through CreateProviderCertificate can terminate a handshake
// verified by the provider that issued its bundle.
var OIDAttestationEvidence = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 56789, 2, 2}

// Issuer produces a bundle binding a caller-chosen payload — the
// TEE-side half of an attestation provider (snp.Provider in
// production).
type Issuer interface {
	Issue(ctx context.Context, payload []byte) (*attest.Bundle, error)
}

// Verifier judges a bundle — the relying party, *attest.Verifier
// (snp.Verifier) in production. It authenticates the report, checks that
// it binds the bundle's payload, and maps every failure onto the
// attestation taxonomy. Its policy revision fences every verdict it
// caches: when InvalidatePolicy moves it, nothing proven under an older
// one is served again, and the gateway reads it as its policy epoch. An
// interface, not *attest.Verifier, so tests can stand a fake TEE behind
// the gateway.
type Verifier interface {
	VerifyEvidence(ctx context.Context, b *attest.Bundle) (*attest.Result, error)
	PolicyRevision() uint64
}

// CreateProviderCertificate builds a fresh key pair and a self-signed
// certificate for commonName whose bundle — issued by issuer — binds the
// certificate's public key. The returned tls.Certificate is ready for a
// tls.Config.
func CreateProviderCertificate(ctx context.Context, issuer Issuer, commonName string) (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: generate key: %w", err)
	}
	pubDER, err := x509.MarshalPKIXPublicKey(&key.PublicKey)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: marshal key: %w", err)
	}
	bundle, err := issuer.Issue(ctx, pubDER)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: issue evidence: %w", err)
	}
	evidenceJSON, err := bundle.Encode()
	if err != nil {
		return tls.Certificate{}, err
	}

	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 128))
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: serial: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: serial,
		Subject:      pkix.Name{CommonName: commonName},
		DNSNames:     []string{commonName},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(90 * 24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
		ExtraExtensions: []pkix.Extension{
			{Id: OIDAttestationEvidence, Value: evidenceJSON},
		},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: create certificate: %w", err)
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}

// ExtractEvidence decodes the report bundle a certificate carries.
func ExtractEvidence(cert *x509.Certificate) (*attest.Bundle, error) {
	for _, ext := range cert.Extensions {
		if ext.Id.Equal(OIDAttestationEvidence) {
			return attest.DecodeBundle(ext.Value)
		}
	}
	return nil, ErrNoEvidence
}

// VerifyProviderCertificate validates an RA-TLS certificate: the
// embedded bundle must verify under v and bind this certificate's public
// key.
func VerifyProviderCertificate(ctx context.Context, v Verifier, cert *x509.Certificate) (*attest.Result, error) {
	bundle, err := ExtractEvidence(cert)
	if err != nil {
		return nil, err
	}
	// The attested payload is x509.MarshalPKIXPublicKey of the key, which
	// is how CreateProviderCertificate's certificate carries it too: the
	// bytes are compared as they stand, and a key encoded any other way is
	// not the attested one.
	if !bytes.Equal(cert.RawSubjectPublicKeyInfo, bundle.Payload) {
		return nil, ErrKeyMismatch
	}
	return v.VerifyEvidence(ctx, bundle)
}

// ProviderPeerVerifier returns a tls.Config.VerifyPeerCertificate
// callback enforcing RA-TLS: the handshake completes only if the peer's
// embedded bundle verifies under v and binds the peer's TLS key. Use with InsecureSkipVerify (the CA path is
// intentionally bypassed — the HRoT replaces it).
//
// The callback keeps nothing: every handshake hands the certificate to v.
// Caching a verdict is v's business — the SEV-SNP verifier answers a
// report it has already proven from its own proof cache, fenced by its
// policy revision and re-judged against current policy on every hit — so
// a revocation bites on the very next handshake, and a tampered or
// substituted certificate is judged in full like any other.
func ProviderPeerVerifier(v Verifier) func(rawCerts [][]byte, _ [][]*x509.Certificate) error {
	return func(rawCerts [][]byte, _ [][]*x509.Certificate) error {
		if len(rawCerts) == 0 {
			return ErrNoPeerCertificate
		}
		cert, err := x509.ParseCertificate(rawCerts[0])
		if err != nil {
			return fmt.Errorf("ratls: parse peer certificate: %w", err)
		}
		//revelio:allow ctxfirst crypto/tls VerifyPeerCertificate callbacks carry no context; the handshake deadline bounds this
		_, err = VerifyProviderCertificate(context.Background(), v, cert)
		return err
	}
}

// ProviderClientConfig builds a tls.Config for dialing an RA-TLS
// server: the CA path is replaced by evidence verification through v.
//
// The config installs no ClientSessionCache, so by default every
// connection is a full, verified handshake. A caller that adds one gets
// resumption that still cannot outlive policy: a resumed handshake skips
// VerifyPeerCertificate, so VerifyConnection puts the certificate the
// session saved through the same callback, and v judges it afresh.
func ProviderClientConfig(v Verifier) *tls.Config {
	verifyPeer := ProviderPeerVerifier(v)
	return &tls.Config{
		InsecureSkipVerify:    true, //nolint:gosec // see ProviderPeerVerifier doc
		VerifyPeerCertificate: verifyPeer,
		VerifyConnection: func(cs tls.ConnectionState) error {
			if !cs.DidResume {
				return nil // the full handshake ran verifyPeer
			}
			if len(cs.PeerCertificates) == 0 {
				return ErrNoPeerCertificate
			}
			return verifyPeer([][]byte{cs.PeerCertificates[0].Raw}, nil)
		},
	}
}
