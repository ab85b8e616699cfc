package attest

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/sha512"
	"crypto/x509"
	"encoding/asn1"
	"errors"
	"fmt"
	"slices"
	"time"

	"revelio/internal/p384"
)

// walkChain judges the chain vcek → ask → ark at now, the one chain shape
// SEV-SNP has. It applies, in the same order, every check crypto/x509's
// Verify applies to this chain (isValid and buildChains, with any extended
// key usage accepted), so that a chain failing two of them fails with the
// class x509 gives: ErrEvidenceExpired for a certificate out of its
// window, ErrChainInvalid for everything else. It adds one verdict of its
// own, the chain's order: the served ASK must issue the VCEK, and the
// served ARK must be self-issued and self-signed, where x509 accepts any
// path from the VCEK to a certificate it is handed as a root.
//
// link, when non-nil, is the proof a whole walk left of this exact ASK→ARK
// link: the ARK is not looked at again (the proof's fence holds its
// NotAfter) and the VCEK's signature is checked against the ASK key the
// proof carries. Without one the walk checks both links and the ARK, and
// returns the ASK's prepared key for the proof the caller stores — nil
// when the ASK's key is not on P-384 (AMD's own ASKs are RSA-PSS).
func walkChain(vcek, ask, ark *x509.Certificate, now time.Time, link *proof) (*p384.PublicKey, error) {
	if len(vcek.UnhandledCriticalExtensions) > 0 {
		return nil, fmt.Errorf("%w: VCEK has an unhandled critical extension", ErrChainInvalid)
	}
	if err := inWindow("VCEK", vcek, now); err != nil {
		return nil, err
	}
	var askKey *p384.PublicKey
	if link != nil {
		askKey = link.key
	} else {
		askKey = prepareKey(ask)
	}
	if err := issuedBy("ASK", ask, askKey, now, true, vcek); err != nil {
		return nil, err
	}
	if link != nil {
		return askKey, nil
	}
	arkKey := prepareKey(ark)
	if err := issuedBy("ARK", ark, arkKey, now, false, vcek, ask); err != nil {
		return nil, err
	}
	// The trust anchor. The ARK is taken as served, so all the walk can
	// ask of it is that it is a root: it names and signs itself. A pinned
	// ARK is compared here, and nowhere else.
	if !bytes.Equal(ark.RawIssuer, ark.RawSubject) {
		return nil, fmt.Errorf("%w: ARK is not self-issued", ErrChainInvalid)
	}
	if err := signedBy(ark, ark, arkKey); err != nil {
		return nil, fmt.Errorf("%w: ARK is not self-signed: %v", ErrChainInvalid, err)
	}
	return askKey, nil
}

// issuedBy checks that parent, named role, issued the last certificate of
// chain (the certificates below parent, VCEK first), with x509's checks
// on a candidate parent in x509's order: the issuer name, the loop check,
// the signature (which puts the CA constraints on parent), then parent's
// own critical extensions, validity window, name constraints, CA flag
// when parent is an intermediate, and path length.
func issuedBy(role string, parent *x509.Certificate, key *p384.PublicKey, now time.Time, intermediate bool, chain ...*x509.Certificate) error {
	child := chain[len(chain)-1]
	if !bytes.Equal(child.RawIssuer, parent.RawSubject) {
		return fmt.Errorf("%w: %s does not name the %s as its issuer", ErrChainInvalid, child.Subject, role)
	}
	if slices.ContainsFunc(chain, func(c *x509.Certificate) bool { return sameEntity(parent, c) }) {
		return fmt.Errorf("%w: the %s cannot issue %s", ErrChainInvalid, role, child.Subject)
	}
	if err := signedBy(child, parent, key); err != nil {
		return fmt.Errorf("%w: %s is not signed by the %s: %v", ErrChainInvalid, child.Subject, role, err)
	}
	if len(parent.UnhandledCriticalExtensions) > 0 {
		return fmt.Errorf("%w: %s has an unhandled critical extension", ErrChainInvalid, role)
	}
	if err := inWindow(role, parent, now); err != nil {
		return err
	}
	// x509 checks a parent's name constraints against the subjectAltNames
	// below it. No certificate of an SEV-SNP chain carries one, and with
	// none there is nothing to check; a chain that has both is refused
	// rather than judged.
	if _, ok := extension(parent, oidNameConstraints); ok && slices.ContainsFunc(chain, hasSAN) {
		return fmt.Errorf("%w: %s name constraints over a subjectAltName", ErrChainInvalid, role)
	}
	if intermediate && (!parent.BasicConstraintsValid || !parent.IsCA) {
		return fmt.Errorf("%w: %s is not a CA", ErrChainInvalid, role)
	}
	if parent.BasicConstraintsValid && parent.MaxPathLen >= 0 && len(chain)-1 > parent.MaxPathLen {
		return fmt.Errorf("%w: %s path length %d exceeded", ErrChainInvalid, role, parent.MaxPathLen)
	}
	return nil
}

// signedBy checks child's signature under parent's key, the one check in
// the walk that costs: ECDSA with SHA-384 under a prepared P-384 key runs
// on the p384 kernel, after the constraints x509.CheckSignatureFrom puts
// on a parent; every other algorithm is CheckSignatureFrom itself.
func signedBy(child, parent *x509.Certificate, key *p384.PublicKey) error {
	if key == nil || child.SignatureAlgorithm != x509.ECDSAWithSHA384 {
		return child.CheckSignatureFrom(parent)
	}
	if parent.Version == 3 && !parent.BasicConstraintsValid || parent.BasicConstraintsValid && !parent.IsCA ||
		parent.KeyUsage != 0 && parent.KeyUsage&x509.KeyUsageCertSign == 0 {
		return errNotCA
	}
	digest := sha512.Sum384(child.RawTBSCertificate)
	if !key.Verify(digest[:], child.Signature) {
		return errBadChainSignature
	}
	return nil
}

var (
	errNotCA             = errors.New("issuer may not sign certificates")
	errBadChainSignature = errors.New("ECDSA P-384 signature does not verify")
)

// prepareKey returns c's key ready for the kernel, or nil when it is not
// a point on P-384: its signatures are checked by crypto/x509.
func prepareKey(c *x509.Certificate) *p384.PublicKey {
	pub, ok := c.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return nil
	}
	key, err := p384.NewPublicKey(pub)
	if err != nil {
		return nil
	}
	return key
}

func inWindow(role string, c *x509.Certificate, now time.Time) error {
	if now.Before(c.NotBefore) || now.After(c.NotAfter) {
		return fmt.Errorf("%w: %s valid from %s to %s, not at %s", ErrEvidenceExpired, role,
			c.NotBefore.Format(time.RFC3339), c.NotAfter.Format(time.RFC3339), now.Format(time.RFC3339))
	}
	return nil
}

// sameEntity is x509's loop check: its chain builder never takes a
// certificate as the issuer of one with the same subject, key and
// subjectAltName extension (or none).
func sameEntity(a, b *x509.Certificate) bool {
	if !bytes.Equal(a.RawSubject, b.RawSubject) {
		return false
	}
	key, ok := a.PublicKey.(interface{ Equal(crypto.PublicKey) bool })
	if !ok || !key.Equal(b.PublicKey) {
		return false
	}
	sa, oka := extension(a, oidSubjectAltName)
	sb, okb := extension(b, oidSubjectAltName)
	return oka == okb && bytes.Equal(sa, sb)
}

var (
	oidSubjectAltName  = asn1.ObjectIdentifier{2, 5, 29, 17}
	oidNameConstraints = asn1.ObjectIdentifier{2, 5, 29, 30}
)

func hasSAN(c *x509.Certificate) bool {
	_, ok := extension(c, oidSubjectAltName)
	return ok
}

// extension returns the value of c's extension id, and whether c has one.
func extension(c *x509.Certificate, id asn1.ObjectIdentifier) ([]byte, bool) {
	for _, e := range c.Extensions {
		if e.Id.Equal(id) {
			return e.Value, true
		}
	}
	return nil, false
}
