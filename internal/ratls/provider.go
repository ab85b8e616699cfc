package ratls

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"fmt"
	"math/big"
	"time"

	"revelio/attestation"
	"revelio/internal/cache"
)

// OIDAttestationEvidence is the X.509 extension carrying a
// provider-neutral attestation.Evidence envelope. A certificate minted
// through CreateProviderCertificate can terminate a handshake verified
// by the provider that issued its evidence.
var OIDAttestationEvidence = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 56789, 2, 2}

// CreateProviderCertificate builds a fresh key pair and a self-signed
// certificate for commonName whose evidence — issued by any
// attestation.Issuer — binds the certificate's
// public key. The returned tls.Certificate is ready for a tls.Config.
func CreateProviderCertificate(ctx context.Context, issuer attestation.Issuer, commonName string) (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: generate key: %w", err)
	}
	pubDER, err := x509.MarshalPKIXPublicKey(&key.PublicKey)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: marshal key: %w", err)
	}
	evidence, err := issuer.Issue(ctx, pubDER)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: issue evidence: %w", err)
	}
	evidenceJSON, err := evidence.Encode()
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

// ExtractEvidence parses the provider-neutral evidence envelope from a
// certificate.
func ExtractEvidence(cert *x509.Certificate) (*attestation.Evidence, error) {
	for _, ext := range cert.Extensions {
		if ext.Id.Equal(OIDAttestationEvidence) {
			return attestation.DecodeEvidence(ext.Value)
		}
	}
	return nil, ErrNoEvidence
}

// VerifyProviderCertificate validates a provider-neutral RA-TLS
// certificate: the embedded evidence must verify under v and bind this
// certificate's public key.
func VerifyProviderCertificate(ctx context.Context, v attestation.Verifier, cert *x509.Certificate) (*attestation.Result, error) {
	evidence, err := ExtractEvidence(cert)
	if err != nil {
		return nil, err
	}
	res, err := v.VerifyEvidence(ctx, evidence)
	if err != nil {
		return nil, err
	}
	// The attested payload is x509.MarshalPKIXPublicKey of the key, which
	// is how CreateProviderCertificate's certificate carries it too: the
	// bytes are compared as they stand, and a key encoded any other way is
	// not the attested one.
	if !bytes.Equal(cert.RawSubjectPublicKeyInfo, res.Payload) {
		return nil, ErrKeyMismatch
	}
	return res, nil
}

// DefaultPeerCacheSize bounds ProviderPeerVerifier's per-callback memo
// of verified peer certificates. One entry per distinct attested node a
// config dials; 256 covers a sizeable fleet.
const DefaultPeerCacheSize = 256

// ProviderPeerVerifier returns a tls.Config.VerifyPeerCertificate
// callback enforcing provider-neutral RA-TLS: the handshake completes
// only if the peer's embedded evidence verifies under v and binds the
// peer's TLS key. Use with InsecureSkipVerify (the CA path is
// intentionally bypassed — the HRoT replaces it).
//
// When v implements attestation.Revisioned, successful verifications
// are memoized by the SHA-256 of the certificate's DER — repeated
// handshakes against the same attested node skip the evidence decode,
// KDS round trips, chain walk and signature checks — and the memo is
// fenced by the policy revision and by the earlier of the certificate's
// and the evidence's expiry. The verified result is what is kept, so
// when v also implements attestation.ResultPolicy every hit re-judges
// policy and a revocation bites on the very next handshake. A tampered
// or substituted certificate hashes to a different key and goes through
// full verification; failures are never memoized. A verifier with
// neither capability simply runs the full verification each time —
// correct, just cold.
func ProviderPeerVerifier(v attestation.Verifier) func(rawCerts [][]byte, _ [][]*x509.Certificate) error {
	revisioned, hasRev := v.(attestation.Revisioned)
	policy, hasPolicy := v.(attestation.ResultPolicy)
	var memo *cache.Cache[[sha256.Size]byte, *attestation.Result]
	if hasRev {
		memo = cache.New[[sha256.Size]byte, *attestation.Result](DefaultPeerCacheSize)
	}
	return func(rawCerts [][]byte, _ [][]*x509.Certificate) error {
		if len(rawCerts) == 0 {
			return ErrNoPeerCertificate
		}
		var key [sha256.Size]byte
		var rev uint64
		if hasRev {
			key = sha256.Sum256(rawCerts[0])
			rev = revisioned.PolicyRevision()
			if res, ok := memo.Get(key, rev, revisioned.Now()); ok {
				if hasPolicy {
					return policy.CheckResult(res)
				}
				return nil
			}
		}
		cert, err := x509.ParseCertificate(rawCerts[0])
		if err != nil {
			return fmt.Errorf("ratls: parse peer certificate: %w", err)
		}
		//revelio:allow ctxfirst crypto/tls VerifyPeerCertificate callbacks carry no context; the handshake deadline bounds this
		res, err := VerifyProviderCertificate(context.Background(), v, cert)
		if err != nil {
			return err
		}
		if hasRev {
			memo.Put(key, res, rev, proofNotAfter(res, cert))
		}
		return nil
	}
}

// proofNotAfter bounds a memoized proof: the certificate's own expiry,
// tightened by the evidence's when the provider reports one.
func proofNotAfter(res *attestation.Result, cert *x509.Certificate) time.Time {
	notAfter := cert.NotAfter
	if !res.Expiry.IsZero() && res.Expiry.Before(notAfter) {
		notAfter = res.Expiry
	}
	return notAfter
}

// ProviderClientConfig builds a tls.Config for dialing a
// provider-neutral RA-TLS server: the CA path is replaced by evidence
// verification through v.
//
// The config installs no ClientSessionCache, so by default every
// connection is a full, verified handshake. A caller that adds one gets
// resumption that still cannot outlive policy: a resumed handshake skips
// VerifyPeerCertificate, so VerifyConnection puts the certificate the
// session saved through the same callback — a memo hit that re-judges
// policy while the revision stands, a full verification after a bump.
func ProviderClientConfig(v attestation.Verifier) *tls.Config {
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
