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
	"sync"
	"time"

	"revelio/internal/p384"
	"revelio/internal/sev"
)

// chain is the ASK and ARK every VCEK is judged against, with the link
// between them checked (checkLink) and the ASK's key prepared for the VCEK
// signatures below it — nil when that key is not on P-384 (AMD's own ASKs
// are RSA-PSS), whose signatures crypto/x509 checks.
type chain struct {
	ask, ark *x509.Certificate
	askKey   *p384.PublicKey
}

// productChain is the product line's chain as internal/sev carries it,
// checked once per process: the root a verifier judges by is never one
// served to it. A chain that fails the check fails every verification.
var productChain = sync.OnceValues(func() (*chain, error) {
	ask, ark, err := sev.ProductChain()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrChainInvalid, err)
	}
	return checkLink(ask, ark)
})

// checkLink judges the ASK→ARK link, once: the ASK names the ARK as its
// issuer, x509's loop check, the ASK's signature under the ARK's key, and
// the trust anchor's own shape — the ARK names and signs itself. Nothing
// here reads a clock. The ASK's and ARK's windows, and the checks that
// look at a VCEK below them, are walkChain's, at the verifier's clock.
func checkLink(ask, ark *x509.Certificate) (*chain, error) {
	arkKey := prepareKey(ark)
	if err := signs("ARK", ark, arkKey, ask); err != nil {
		return nil, err
	}
	if !bytes.Equal(ark.RawIssuer, ark.RawSubject) {
		return nil, fmt.Errorf("%w: ARK is not self-issued", ErrChainInvalid)
	}
	if err := signedBy(ark, ark, arkKey); err != nil {
		return nil, fmt.Errorf("%w: ARK is not self-signed: %v", ErrChainInvalid, err)
	}
	return &chain{ask: ask, ark: ark, askKey: prepareKey(ask)}, nil
}

// walkChain judges vcek under c at now. With checkLink's checks made
// once, it applies, in the same order, every other check crypto/x509's
// Verify applies to the chain vcek → ask → ark (isValid and buildChains,
// with any extended key usage accepted), so that a chain failing two of
// them fails with the class x509 gives: ErrEvidenceExpired for a
// certificate out of its window, ErrChainInvalid for everything else. It
// checks one signature, the VCEK's, against the ASK key c carries.
func walkChain(vcek *x509.Certificate, c *chain, now time.Time) error {
	if len(vcek.UnhandledCriticalExtensions) > 0 {
		return fmt.Errorf("%w: VCEK has an unhandled critical extension", ErrChainInvalid)
	}
	if err := inWindow("VCEK", vcek, now); err != nil {
		return err
	}
	if err := signs("ASK", c.ask, c.askKey, vcek); err != nil {
		return err
	}
	if err := vouches("ASK", c.ask, now, true, vcek); err != nil {
		return err
	}
	// The ARK as the issuer of the ASK above this VCEK: what the VCEK adds
	// to checkLink's loop check, then the ARK's own checks as a parent.
	if sameEntity(c.ark, vcek) {
		return fmt.Errorf("%w: the ARK cannot issue the ASK above %s", ErrChainInvalid, vcek.Subject)
	}
	return vouches("ARK", c.ark, now, false, vcek, c.ask)
}

// signs checks that parent, named role, issued child, with x509's checks
// of a candidate parent in x509's order: the issuer name, the loop check,
// and the signature, which puts the CA constraints on parent.
func signs(role string, parent *x509.Certificate, key *p384.PublicKey, child *x509.Certificate) error {
	if !bytes.Equal(child.RawIssuer, parent.RawSubject) {
		return fmt.Errorf("%w: %s does not name the %s as its issuer", ErrChainInvalid, child.Subject, role)
	}
	if sameEntity(parent, child) {
		return fmt.Errorf("%w: the %s cannot issue %s", ErrChainInvalid, role, child.Subject)
	}
	if err := signedBy(child, parent, key); err != nil {
		return fmt.Errorf("%w: %s is not signed by the %s: %v", ErrChainInvalid, child.Subject, role, err)
	}
	return nil
}

// vouches applies x509's checks of parent, named role, as the issuer of
// chain's last certificate, in x509's order: parent's own critical
// extensions, validity window, name constraints, CA flag when parent is
// an intermediate, and path length.
func vouches(role string, parent *x509.Certificate, now time.Time, intermediate bool, chain ...*x509.Certificate) error {
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
