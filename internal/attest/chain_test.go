package attest

import (
	"bytes"
	"context"
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha512"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"

	"revelio/internal/amdsp"
	"revelio/internal/sev"
)

// x509Verdict is the chain check VerifyReport made before walkChain, kept
// as the walk's oracle: crypto/x509's Verify with the ARK as the root and
// the ASK as the intermediate.
func x509Verdict(vcek, ask, ark *x509.Certificate, now time.Time) error {
	opts := x509.VerifyOptions{
		Roots:         x509.NewCertPool(),
		Intermediates: x509.NewCertPool(),
		CurrentTime:   now,
		KeyUsages:     []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	}
	opts.Roots.AddCert(ark)
	opts.Intermediates.AddCert(ask)
	if _, err := vcek.Verify(opts); err != nil {
		var invalid x509.CertificateInvalidError
		if errors.As(err, &invalid) && invalid.Reason == x509.Expired {
			return fmt.Errorf("%w: %v", ErrEvidenceExpired, err)
		}
		return fmt.Errorf("%w: %v", ErrChainInvalid, err)
	}
	return nil
}

// chainClass is what a caller of the chain check can tell apart.
func chainClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrEvidenceExpired):
		return "expired"
	case errors.Is(err, ErrChainInvalid):
		return "invalid"
	}
	return "unclassified: " + err.Error()
}

// The roles, as indices into a chainSpec's certificates.
const (
	roleVCEK = iota
	roleASK
	roleARK
)

var roleNames = [3]string{"VCEK", "ASK", "ARK"}

// The mutations a chain spec is built from. Each is one byte naming the
// role it applies to and the mutation (role·opCount + op), followed by one
// argument byte.
const (
	opNotBefore        = iota // arg: hours from the base time, as an int8
	opNotAfter                // arg: hours from the base time, as an int8
	opBasicConstraints        // toggles BasicConstraintsValid
	opCA                      // toggles IsCA
	opKeyUsage                // arg selects from keyUsages
	opPathLen                 // arg%4 - 1: none, 0, 1 or 2
	opCritical                // an extension no parser knows, marked critical
	opNames                   // arg even: name constraints; odd: a subjectAltName outside them
	opKey                     // arg selects the certificate's key: P-384, P-256, RSA or Ed25519
	opSigAlg                  // arg selects the algorithm the issuer signs this certificate with
	opRenameIssuer            // the certificate names another issuer
	opWrongSigner             // signed by a key that is not its issuer's
	opCorrupt                 // the signature's last byte flipped
	opSubject                 // arg%3: the certificate carries that role's name
	opV1                      // a version 1 certificate: no extensions at all
	opServe                   // arg selects which certificate is served in which slot
	opSkew                    // arg: hours the verifier's clock is off the base time, as an int8
	opCount
)

func op(role, kind int, arg int8) []byte { return []byte{byte(role*opCount + kind), byte(arg)} }

var keyUsages = []x509.KeyUsage{0, x509.KeyUsageCertSign, x509.KeyUsageDigitalSignature,
	x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature, x509.KeyUsageCRLSign}

// serves lists the slots (VCEK, ASK, ARK) the built certificates can be
// served in: as built, the ASK and ARK swapped, and one certificate served
// in two slots.
var serves = [][3]int{
	{roleVCEK, roleASK, roleARK},
	{roleVCEK, roleARK, roleASK},
	{roleARK, roleASK, roleARK},
	{roleASK, roleASK, roleARK},
	{roleVCEK, roleASK, roleASK},
	{roleVCEK, roleARK, roleARK},
}

var chainBase = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)

type certSpec struct {
	notBefore, notAfter    time.Duration
	basicConstraints, ca   bool
	keyUsage               x509.KeyUsage
	pathLen                int
	critical, nc, san      bool
	key, sigAlg, subject   int
	renameIssuer, wrongKey bool
	corrupt, v1            bool
}

// chainSpec is an ARK → ASK → VCEK chain, honest but for the mutations
// decoded into it, and the slots and clock it is judged with.
type chainSpec struct {
	certs [3]certSpec
	serve int
	skew  time.Duration
}

func decodeChain(data []byte) chainSpec {
	var s chainSpec
	for r := range s.certs {
		s.certs[r] = certSpec{
			notBefore: -time.Hour, notAfter: 1000 * time.Hour,
			basicConstraints: r != roleVCEK, ca: r != roleVCEK,
			keyUsage: x509.KeyUsageCertSign, pathLen: -1, subject: r,
		}
	}
	s.certs[roleVCEK].keyUsage = x509.KeyUsageDigitalSignature
	for ; len(data) >= 2; data = data[2:] {
		kind, arg := int(data[0])%opCount, data[1]
		c := &s.certs[int(data[0])/opCount%3]
		hours := time.Duration(int8(arg)) * time.Hour
		switch kind {
		case opNotBefore:
			c.notBefore = hours
		case opNotAfter:
			c.notAfter = hours
		case opBasicConstraints:
			c.basicConstraints = !c.basicConstraints
		case opCA:
			c.ca = !c.ca
		case opKeyUsage:
			c.keyUsage = keyUsages[int(arg)%len(keyUsages)]
		case opPathLen:
			c.pathLen = int(arg%4) - 1
		case opCritical:
			c.critical = true
		case opNames:
			if arg%2 == 0 {
				c.nc = true
			} else {
				c.san = true
			}
		case opKey:
			c.key = int(arg % 4)
		case opSigAlg:
			c.sigAlg = int(arg % 3)
		case opRenameIssuer:
			c.renameIssuer = true
		case opWrongSigner:
			c.wrongKey = true
		case opCorrupt:
			c.corrupt = true
		case opSubject:
			c.subject = int(arg % 3)
		case opV1:
			c.v1 = true
		case opServe:
			s.serve = int(arg) % len(serves)
		case opSkew:
			s.skew = hours
		}
	}
	return s
}

// chainKeys are the keys chain specs are built over: a P-384 key per role
// and a spare that signs what it should not, and one P-256, one RSA per
// role, one Ed25519.
type chainKeyset struct {
	p384 [4]*ecdsa.PrivateKey
	p256 *ecdsa.PrivateKey
	rsa  [3]*rsa.PrivateKey
	ed   ed25519.PrivateKey
}

var chainKeys = sync.OnceValue(func() *chainKeyset {
	var k chainKeyset
	var err error
	for i := range k.p384 {
		if k.p384[i], err = ecdsa.GenerateKey(elliptic.P384(), rand.Reader); err != nil {
			panic(err)
		}
	}
	if k.p256, err = ecdsa.GenerateKey(elliptic.P256(), rand.Reader); err != nil {
		panic(err)
	}
	for i := range k.rsa {
		if k.rsa[i], err = rsa.GenerateKey(rand.Reader, 2048); err != nil {
			panic(err)
		}
	}
	if _, k.ed, err = ed25519.GenerateKey(rand.Reader); err != nil {
		panic(err)
	}
	return &k
})

func (k *chainKeyset) signer(role, kind int) crypto.Signer {
	switch kind {
	case 1:
		return k.p256
	case 2:
		return k.rsa[role]
	case 3:
		return k.ed
	}
	return k.p384[role]
}

// sigAlg is the algorithm a certificate is signed with under signer,
// variant 0 being the one that signer's kind of key signs with by default.
func sigAlg(signer crypto.Signer, variant int) x509.SignatureAlgorithm {
	switch signer.(type) {
	case *rsa.PrivateKey:
		return [...]x509.SignatureAlgorithm{x509.SHA384WithRSAPSS, x509.SHA256WithRSA, x509.SHA256WithRSAPSS}[variant]
	case ed25519.PrivateKey:
		return x509.PureEd25519
	}
	return [...]x509.SignatureAlgorithm{x509.ECDSAWithSHA384, x509.ECDSAWithSHA256, x509.ECDSAWithSHA512}[variant]
}

// builtChain is a built spec: each role's certificate and private key.
type builtChain struct {
	certs [3]*x509.Certificate
	keys  [3]crypto.Signer
}

// build issues the ARK, then the ASK under it, then the VCEK under that.
// A spec crypto/x509 will not build (an algorithm its key cannot sign
// with, MaxPathLen on a leaf) reports false.
func (s *chainSpec) build(k *chainKeyset) (b builtChain, ok bool) {
	for r := roleARK; r >= roleVCEK; r-- {
		var parent *x509.Certificate
		var signer crypto.Signer
		if r != roleARK {
			parent, signer = b.certs[r+1], b.keys[r+1]
		}
		issue := func() *x509.Certificate { return s.certs[r].issue(k, r, parent, signer) }
		if r == roleVCEK {
			b.certs[r] = issue()
		} else {
			var parentDER string
			if parent != nil {
				parentDER = string(parent.Raw)
			}
			b.certs[r] = remember(struct {
				role   int
				spec   certSpec
				parent string
			}{r, s.certs[r], parentDER}, issue)
		}
		if b.certs[r] == nil {
			return b, false
		}
		b.keys[r] = k.signer(r, s.certs[r].key)
	}
	return b, true
}

// issue makes c's certificate for role under parent, signed by signer (a
// nil parent: self-signed), or returns nil if crypto/x509 will not.
func (c certSpec) issue(k *chainKeyset, role int, parent *x509.Certificate, signer crypto.Signer) *x509.Certificate {
	key := k.signer(role, c.key)
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(int64(role + 1)),
		Subject:               pkix.Name{CommonName: roleNames[c.subject]},
		NotBefore:             chainBase.Add(c.notBefore),
		NotAfter:              chainBase.Add(c.notAfter),
		BasicConstraintsValid: c.basicConstraints,
		IsCA:                  c.ca,
		KeyUsage:              c.keyUsage,
		MaxPathLen:            c.pathLen,
		MaxPathLenZero:        c.pathLen == 0,
	}
	if c.critical {
		tmpl.ExtraExtensions = []pkix.Extension{{Id: asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 55555, 1}, Critical: true, Value: []byte{5, 0}}}
	}
	if c.nc {
		tmpl.PermittedDNSDomains = []string{"example.org"}
	}
	if c.san {
		tmpl.DNSNames = []string{"outside.test"}
	}
	if parent == nil {
		parent, signer = tmpl, key
	}
	if c.renameIssuer || c.wrongKey {
		p := *parent
		p.PublicKey = nil // CreateCertificate refuses a signer that is not parent's key
		if c.renameIssuer {
			p.RawSubject, p.Subject = nil, pkix.Name{CommonName: "OTHER"}
		}
		if c.wrongKey {
			signer = k.p384[3]
		}
		parent = &p
	}
	tmpl.SignatureAlgorithm = sigAlg(signer, c.sigAlg)
	var der []byte
	var err error
	if c.v1 {
		der, err = createV1(tmpl, parent, key.Public(), signer)
	} else {
		der, err = x509.CreateCertificate(rand.Reader, tmpl, parent, key.Public(), signer)
	}
	if err != nil {
		return nil
	}
	if c.corrupt {
		der[len(der)-1] ^= 1 // the last byte of a certificate is its signature's
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil
	}
	return cert
}

// remember memoizes what build and judge make of a CA certificate's spec
// or a served ASK and ARK, so that a fuzz input whose CAs were seen before
// pays for its VCEK alone. The memo keeps at most 4096 entries.
func remember[V any](key any, build func() V) V {
	chainMemo.Lock()
	v, ok := chainMemo.m[key]
	chainMemo.Unlock()
	if ok {
		return v.(V)
	}
	out := build()
	chainMemo.Lock()
	if len(chainMemo.m) < 4096 {
		chainMemo.m[key] = out
	}
	chainMemo.Unlock()
	return out
}

var chainMemo = struct {
	sync.Mutex
	m map[any]any
}{m: map[any]any{}}

// createV1 issues a version 1 certificate, which has no extensions and
// which crypto/x509 no longer makes. Only ECDSA with SHA-384 signs it.
func createV1(tmpl, parent *x509.Certificate, pub crypto.PublicKey, signer crypto.Signer) ([]byte, error) {
	if tmpl.SignatureAlgorithm != x509.ECDSAWithSHA384 {
		return nil, errors.New("v1: only ECDSA with SHA-384")
	}
	spki, err := x509.MarshalPKIXPublicKey(pub)
	if err != nil {
		return nil, err
	}
	issuer := parent.RawSubject
	if issuer == nil {
		if issuer, err = asn1.Marshal(parent.Subject.ToRDNSequence()); err != nil {
			return nil, err
		}
	}
	subject, err := asn1.Marshal(tmpl.Subject.ToRDNSequence())
	if err != nil {
		return nil, err
	}
	algo := pkix.AlgorithmIdentifier{Algorithm: asn1.ObjectIdentifier{1, 2, 840, 10045, 4, 3, 3}}
	tbs, err := asn1.Marshal(struct {
		Serial   *big.Int
		Algo     pkix.AlgorithmIdentifier
		Issuer   asn1.RawValue
		Validity struct{ NotBefore, NotAfter time.Time }
		Subject  asn1.RawValue
		Key      asn1.RawValue
	}{tmpl.SerialNumber, algo, asn1.RawValue{FullBytes: issuer},
		struct{ NotBefore, NotAfter time.Time }{tmpl.NotBefore.UTC(), tmpl.NotAfter.UTC()},
		asn1.RawValue{FullBytes: subject}, asn1.RawValue{FullBytes: spki}})
	if err != nil {
		return nil, err
	}
	digest := sha512.Sum384(tbs)
	sig, err := signer.Sign(rand.Reader, digest[:], crypto.SHA384)
	if err != nil {
		return nil, err
	}
	return asn1.Marshal(struct {
		TBS  asn1.RawValue
		Algo pkix.AlgorithmIdentifier
		Sig  asn1.BitString
	}{asn1.RawValue{FullBytes: tbs}, algo, asn1.BitString{Bytes: sig, BitLength: 8 * len(sig)}})
}

// verdicts is one spec judged by the walk — checkLink over the served ASK
// and ARK, then walkChain over the served VCEK — and by the oracle.
type verdicts struct {
	walk, x509 string
	// orderOnly: only the chain's order is at issue, which x509 does not
	// judge. linkBroken: checkLink refused the ASK and ARK, and with them
	// every VCEK at every clock.
	orderOnly, linkBroken bool
}

func judge(s chainSpec) (verdicts, bool) {
	b, ok := s.build(chainKeys())
	if !ok {
		return verdicts{}, false
	}
	slot := serves[s.serve]
	vcek, ask, ark := b.certs[slot[0]], b.certs[slot[1]], b.certs[slot[2]]
	now := chainBase.Add(s.skew)
	type checked struct {
		c   *chain
		err error
	}
	link := remember(struct{ ask, ark string }{string(ask.Raw), string(ark.Raw)}, func() checked {
		c, err := checkLink(ask, ark)
		return checked{c, err}
	})
	err := link.err
	if err == nil {
		err = walkChain(vcek, link.c, now)
	}
	v := verdicts{walk: chainClass(err), x509: chainClass(x509Verdict(vcek, ask, ark, now)), linkBroken: link.err != nil}
	// What the walk judges and x509 does not: the served ARK named as the
	// VCEK's issuer, the VCEK being the ARK, an ARK that is not self-issued
	// and self-signed.
	v.orderOnly = v.walk != v.x509 && (bytes.Equal(ark.RawSubject, vcek.RawIssuer) || bytes.Equal(vcek.Raw, ark.Raw) ||
		!bytes.Equal(ark.RawIssuer, ark.RawSubject) || ark.CheckSignatureFrom(ark) != nil)
	return v, true
}

// agree reports whether the walk's verdict is x509's, or a refusal where
// x509 differs for a reason the walk judges apart: the chain's order, or
// a link checkLink refused with no clock, where x509 may find a window
// closed before it looks at the link's signature.
func (v verdicts) agree() bool {
	return v.walk == v.x509 || v.walk == "invalid" && (v.orderOnly || v.linkBroken && v.x509 == "expired")
}

// FuzzChainMatchesX509 builds an ARK → ASK → VCEK chain under mutated
// validity windows, basic constraints, key usage, path length, critical
// extensions, name constraints, keys and signature algorithms, issuer
// names, signers and signatures, serves it in any order at any clock, and
// holds the walk — the ASK→ARK link checked once, then the VCEK walked
// under it — to crypto/x509's verdict and error class. The walk may
// differ only by refusing: a chain whose order is wrong, or whose link is
// broken at every clock.
func FuzzChainMatchesX509(f *testing.F) {
	for _, row := range chainRows {
		f.Add(row.ops)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeChain(data)
		if v, ok := judge(s); ok && !v.agree() {
			t.Fatalf("walk %s, x509 %s (%+v)", v.walk, v.x509, s)
		}
	})
}

func ops(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// chainRows name one chain per check of the walk — each one's refusal,
// and the neighbours that must still pass — with the verdict both the walk
// and x509 give it (x509's own verdict differs only on the order rows and
// where a broken link meets a closed window).
var chainRows = []struct {
	name       string
	ops        []byte
	walk, x509 string
}{
	{"honest", nil, "ok", "ok"},
	{"VCEK critical extension", op(roleVCEK, opCritical, 0), "invalid", "invalid"},
	{"VCEK not yet valid", op(roleVCEK, opNotBefore, 2), "expired", "expired"},
	{"VCEK expired", op(roleVCEK, opNotAfter, -2), "expired", "expired"},
	{"VCEK names another issuer", op(roleVCEK, opRenameIssuer, 0), "invalid", "invalid"},
	{"VCEK signed by another key", op(roleVCEK, opWrongSigner, 0), "invalid", "invalid"},
	{"VCEK signature corrupt", op(roleVCEK, opCorrupt, 0), "invalid", "invalid"},
	{"VCEK with the ASK's name and key", ops(op(roleVCEK, opSubject, roleASK), op(roleVCEK, opKey, 1), op(roleASK, opKey, 1)), "invalid", "invalid"},
	{"VCEK with the ASK's name, key and another subjectAltName", ops(op(roleVCEK, opSubject, roleASK), op(roleVCEK, opKey, 1), op(roleASK, opKey, 1), op(roleVCEK, opNames, 1)), "ok", "ok"},
	{"VCEK with the ASK's name", op(roleVCEK, opSubject, roleASK), "ok", "ok"},
	{"VCEK with the ARK's name and key", ops(op(roleVCEK, opSubject, roleARK), op(roleVCEK, opKey, 1), op(roleARK, opKey, 1)), "invalid", "invalid"},
	{"VCEK with the ARK's name", op(roleVCEK, opSubject, roleARK), "ok", "ok"},
	{"VCEK with the ASK's key", ops(op(roleVCEK, opKey, 1), op(roleASK, opKey, 1)), "ok", "ok"},
	{"VCEK signed with SHA-256", op(roleVCEK, opSigAlg, 1), "ok", "ok"},
	{"VCEK signature corrupt under SHA-512", ops(op(roleVCEK, opSigAlg, 2), op(roleVCEK, opCorrupt, 0)), "invalid", "invalid"},
	{"ASK not a CA", op(roleASK, opCA, 0), "invalid", "invalid"},
	{"ASK not a CA, and expired", ops(op(roleASK, opCA, 0), op(roleASK, opNotAfter, -2)), "invalid", "invalid"},
	{"ASK without basic constraints, and expired", ops(op(roleASK, opBasicConstraints, 0), op(roleASK, opNotAfter, -2)), "invalid", "invalid"},
	{"ASK version 1", op(roleASK, opV1, 0), "invalid", "invalid"},
	{"ASK version 1, and expired", ops(op(roleASK, opV1, 0), op(roleASK, opNotAfter, -2)), "expired", "expired"},
	{"ASK may not sign certificates", op(roleASK, opKeyUsage, 2), "invalid", "invalid"},
	{"ASK key usage unset", op(roleASK, opKeyUsage, 0), "ok", "ok"},
	{"ASK critical extension", op(roleASK, opCritical, 0), "invalid", "invalid"},
	{"ASK critical extension, and expired", ops(op(roleASK, opCritical, 0), op(roleASK, opNotAfter, -2)), "invalid", "invalid"},
	{"ASK expired", op(roleASK, opNotAfter, -2), "expired", "expired"},
	{"ASK not yet valid", op(roleASK, opNotBefore, 2), "expired", "expired"},
	{"ASK expired, VCEK signature corrupt", ops(op(roleASK, opNotAfter, -2), op(roleVCEK, opCorrupt, 0)), "invalid", "invalid"},
	{"ASK name constraints", op(roleASK, opNames, 0), "ok", "ok"},
	{"ASK name constraints over a VCEK subjectAltName", ops(op(roleASK, opNames, 0), op(roleVCEK, opNames, 1)), "invalid", "invalid"},
	{"ASK path length 0", op(roleASK, opPathLen, 1), "ok", "ok"},
	{"ASK names another issuer", op(roleASK, opRenameIssuer, 0), "invalid", "invalid"},
	{"ASK signed by another key", op(roleASK, opWrongSigner, 0), "invalid", "invalid"},
	{"ASK signature corrupt", op(roleASK, opCorrupt, 0), "invalid", "invalid"},
	// checkLink refuses the ASK's signature with no clock; x509 finds the
	// ASK's window closed first.
	{"ASK expired, its signature corrupt", ops(op(roleASK, opNotAfter, -2), op(roleASK, opCorrupt, 0)), "invalid", "expired"},
	{"ASK on P-256", op(roleASK, opKey, 1), "ok", "ok"},
	{"ARK not a CA", op(roleARK, opCA, 0), "invalid", "invalid"},
	{"ARK may not sign certificates", op(roleARK, opKeyUsage, 2), "invalid", "invalid"},
	{"ARK version 1", op(roleARK, opV1, 0), "ok", "ok"},
	{"ARK critical extension", op(roleARK, opCritical, 0), "invalid", "invalid"},
	{"ARK expired", op(roleARK, opNotAfter, -2), "expired", "expired"},
	{"ARK path length 0", op(roleARK, opPathLen, 1), "invalid", "invalid"},
	{"ARK path length 1", op(roleARK, opPathLen, 2), "ok", "ok"},
	{"ARK name constraints over an ASK subjectAltName", ops(op(roleARK, opNames, 0), op(roleASK, opNames, 1)), "invalid", "invalid"},
	{"ARK expired, ASK signed by another key", ops(op(roleARK, opNotAfter, -2), op(roleASK, opWrongSigner, 0)), "invalid", "invalid"},
	{"ASK and ARK on RSA-PSS", ops(op(roleASK, opKey, 2), op(roleARK, opKey, 2)), "ok", "ok"},
	{"ASK on RSA, VCEK signed PKCS #1 v1.5", ops(op(roleASK, opKey, 2), op(roleVCEK, opSigAlg, 1)), "ok", "ok"},
	{"ASK on RSA, VCEK signature corrupt", ops(op(roleASK, opKey, 2), op(roleVCEK, opCorrupt, 0)), "invalid", "invalid"},
	{"ARK on Ed25519", op(roleARK, opKey, 3), "ok", "ok"},
	{"clock past the ARK", ops(op(roleARK, opNotAfter, 5), op(roleVCEK, opSkew, 6)), "expired", "expired"},
	// The order: x509 accepts each of these through a path that is not
	// VCEK → served ASK → served ARK; the walk refuses it.
	{"ASK and ARK swapped", op(roleVCEK, opServe, 1), "invalid", "ok"},
	{"VCEK is the ARK", op(roleVCEK, opServe, 2), "invalid", "ok"},
	{"ARK names another issuer", op(roleARK, opRenameIssuer, 0), "invalid", "ok"},
	{"ARK signed by another key", op(roleARK, opWrongSigner, 0), "invalid", "ok"},
}

// TestChainWalkRows holds each row to its verdict on the walk and on x509.
func TestChainWalkRows(t *testing.T) {
	for _, row := range chainRows {
		v, ok := judge(decodeChain(row.ops))
		if !ok {
			t.Errorf("%s: does not build", row.name)
			continue
		}
		if v.walk != row.walk || v.x509 != row.x509 || !v.agree() {
			t.Errorf("%s: walk %s, x509 %s; want %s, %s", row.name, v.walk, v.x509, row.walk, row.x509)
		}
	}
}

// TestChainWalkJudgesOrder: carried the other way round — the ARK in the
// ASK's place — the chain fails checkLink, and a genuine VCEK no longer
// verifies: nor does any other, at any clock, and nothing is cached.
// crypto/x509 accepted it, because with the ASK handed over as the root it
// never looks at the certificate served as the intermediate.
func TestChainWalkJudgesOrder(t *testing.T) {
	mfr, err := amdsp.NewManufacturer([]byte("chain-order"))
	if err != nil {
		t.Fatal(err)
	}
	far := time.Now().Add(10 * 365 * 24 * time.Hour)
	p := newPKI(t, far)
	ark := p.ark
	ask, askKey := p.ca("ASK-TEST", ark, p.arkKey, far)
	var reports []*sev.Report
	for _, seed := range []string{"chip-a", "chip-b"} {
		chip, rep := mintChip(t, mfr, seed)
		vcek := p.endorse(chip, chipKey(t, mfr, chip), ask, askKey, far)
		if err := x509Verdict(vcek, ark, ask, time.Now()); err != nil {
			t.Fatalf("x509 on the swapped pair: %v, want it accepted", err)
		}
		reports = append(reports, rep)
	}

	v := carrying(NewVerifier(p, nil), ark, ask)
	for _, rep := range append(reports, reports...) {
		if _, err := v.VerifyReport(context.Background(), rep); !errors.Is(err, ErrChainInvalid) {
			t.Fatalf("swapped ASK and ARK: err = %v, want ErrChainInvalid", err)
		}
	}
	if n := v.chains.Len() + v.reports.Len(); n != 0 {
		t.Errorf("a refused chain left %d proofs", n)
	}
	carrying(v, ask, ark)
	for _, rep := range reports {
		if _, err := v.VerifyReport(context.Background(), rep); err != nil {
			t.Fatalf("carried in order: %v", err)
		}
	}
}

// TestChainWalkRSAPSS: AMD's ARK and ASK keys are RSA, signing with
// RSA-PSS. Such a chain goes through crypto/x509's signature check, and
// the carried chain holds no prepared ASK key.
func TestChainWalkRSAPSS(t *testing.T) {
	mfr, err := amdsp.NewManufacturer([]byte("chain-rsa-pss"))
	if err != nil {
		t.Fatal(err)
	}
	k := chainKeys()
	far := time.Now().Add(10 * 365 * 24 * time.Hour)
	p := newPKI(t, far)
	issue := func(tmpl, parent *x509.Certificate, pub crypto.PublicKey, signer crypto.Signer) *x509.Certificate {
		t.Helper()
		tmpl.SignatureAlgorithm = x509.SHA384WithRSAPSS
		return p.issue(tmpl, parent, pub, signer, signer, far)
	}
	ark := issue(caTemplate(pkix.Name{CommonName: "ARK-Milan"}), nil, k.rsa[roleARK].Public(), k.rsa[roleARK])
	ask := issue(caTemplate(pkix.Name{CommonName: "SEV-Milan"}), ark, k.rsa[roleASK].Public(), k.rsa[roleARK])
	var reports []*sev.Report
	for _, seed := range []string{"chip-a", "chip-b"} {
		chip, rep := mintChip(t, mfr, seed)
		vcek := issue(&x509.Certificate{Subject: pkix.Name{CommonName: "SEV-VCEK"}, KeyUsage: x509.KeyUsageDigitalSignature,
			ExtraExtensions: sev.VCEKExtensions(chip.ChipID(), chip.TCB())}, ask, chipKey(t, mfr, chip), k.rsa[roleASK])
		if vcek.SignatureAlgorithm != x509.SHA384WithRSAPSS {
			t.Fatalf("VCEK signed with %v", vcek.SignatureAlgorithm)
		}
		p.serveVCEK(chip.ChipID(), vcek)
		reports = append(reports, rep)
	}

	v := carrying(NewVerifier(p, nil), ask, ark)
	for _, rep := range reports {
		if _, err := v.VerifyReport(context.Background(), rep); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := v.Stats(), (Stats{ReportsVerified: 2, ChainLinksVerified: 2, KeysPrepared: 2}); got != want {
		t.Errorf("two chips under an RSA-PSS chain: %+v, want %+v", got, want)
	}
	if c, err := v.carried(); err != nil || c.askKey != nil {
		t.Errorf("carried chain %v with ASK key %v, want one without a key", err, c.askKey)
	}
}

// TestChainLinkCarriesASKKey: the product line's ASK→ARK link is checked,
// and the ASK's key prepared, once per process. Every verifier judges by
// the same checked chain; the key is the one the ASK signs VCEKs with;
// InvalidatePolicy drops the proofs and leaves the chain; and the key a
// walk prepares is the VCEK's, never the ASK's again.
func TestChainLinkCarriesASKKey(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	c, err := productChain()
	if err != nil {
		t.Fatal(err)
	}
	if c.askKey == nil {
		t.Fatal("the product line's ASK is on P-384, and its key is not prepared")
	}
	vcek, err := r.client.VCEK(ctx, r.sp.ChipID(), r.sp.TCB())
	if err != nil {
		t.Fatal(err)
	}
	digest := sha512.Sum384(vcek.RawTBSCertificate)
	if !c.askKey.Verify(digest[:], vcek.Signature) {
		t.Fatal("the carried key is not the ASK that issued the VCEK")
	}

	v := NewVerifier(r.client, nil)
	if _, err := v.VerifyReport(ctx, r.report(t, sev.ReportData{1})); err != nil {
		t.Fatal(err)
	}
	v.InvalidatePolicy()
	if _, err := v.VerifyReport(ctx, r.chipReport(t, "chip-b")); err != nil {
		t.Fatal(err)
	}
	if got, err := v.carried(); err != nil || got != c {
		t.Errorf("verifier judges by %p (%v), the process checked %p", got, err, c)
	}
	if again, _ := productChain(); again != c {
		t.Error("the product chain was checked twice")
	}
	if got, want := v.Stats(), (Stats{ReportsVerified: 2, ChainLinksVerified: 2, KeysPrepared: 2}); got != want {
		t.Errorf("%+v, want %+v (KeysPrepared counts VCEK keys only)", got, want)
	}
}

// BenchmarkChainWalk times the check a joining chip's VCEK gets — the walk
// under the carried chain, and the crypto/x509 verification of the whole
// chain it replaced — and checkLink, which a process runs once.
func BenchmarkChainWalk(b *testing.B) {
	honest := decodeChain(nil)
	built, ok := honest.build(chainKeys())
	if !ok {
		b.Fatal("honest chain does not build")
	}
	vcek, ask, ark := built.certs[roleVCEK], built.certs[roleASK], built.certs[roleARK]
	c, err := checkLink(ask, ark)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := walkChain(vcek, c, chainBase); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("x509", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := x509Verdict(vcek, ask, ark, chainBase); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("link", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := checkLink(ask, ark); err != nil {
				b.Fatal(err)
			}
		}
	})
}
