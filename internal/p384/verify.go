// Package p384 verifies ECDSA signatures over NIST P-384, and does nothing
// else: it is the kernel under sev.Report.Verify, the check every trust
// decision in this repository ends in.
//
// It is VARIABLE-TIME BY DESIGN and must only ever see public inputs. A
// verifier's operands — the attestation report, its signature, the VCEK
// public key — are all handed over by the party being verified, so there
// is no secret for timing to leak, and the constant-time machinery
// crypto/ecdsa carries for signing's sake (fixed windows read through
// constant-time selects, complete addition formulas, a modular
// exponentiation for s⁻¹) is what costs it twice the time. The package
// therefore exports verification only: no signing, no scalar
// multiplication, no key generation, nothing a secret scalar could be
// handed to. Signing stays with crypto/ecdsa.
//
// The algorithm has two halves. NewPublicKey, once per key: check the key
// names P-384, has coordinates below p and is on the curve, then store
// for each 64-bit limb b of a scalar the eight affine points
// {1, 3, …, 15}·2^(64b)·Q. (*PublicKey).Verify, once per signature: parse
// the DER signature and range-check r and s; w = s⁻¹ mod n by
// big.Int.ModInverse; recode each limb of u1 = e·w and u2 = r·w on its
// own as a width-8 and a width-5 non-adjacent form; compute
// R = u1·G + u2·Q in one pass of at most 65 Jacobian doublings with a
// mixed addition at each non-zero digit of the twelve limbs (G's tables
// are static, Q's are the key's); accept iff R is finite and
// x(R) mod n = r, tested projectively as X = r·Z² or X = (r+n)·Z² so that
// no field inversion is paid. The field is hand-written 6×64-bit
// Montgomery arithmetic. One code path, every platform: no assembly, no
// unsafe, no build tags, and no second ladder for keys seen once — Verify
// prepares the key and calls the same code.
//
// crypto/ecdsa.VerifyASN1 is the oracle: the tests and the fuzz target
// hold Verify to the same verdict on every input, honest or hostile.
package p384

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"errors"
	"math/big"
)

// PublicKey is a validated P-384 public key together with the tables
// verification against it reads (≈ 4.6 KB). Preparing one costs about as
// much as two verifications, so it is for a key that will be verified
// against again: a verifier keeps it for as long as it keeps trusting the
// key, and no longer. A PublicKey is immutable and safe for concurrent use.
type PublicKey struct {
	blocks keyBlocks
}

var errInvalidKey = errors.New("p384: not a point on P-384")

// NewPublicKey validates pub — on the curve named P-384, coordinates
// below p, the curve equation holds — and prepares it. A key on any other
// curve is rejected. The key is treated as public: the running time
// depends on it.
func NewPublicKey(pub *ecdsa.PublicKey) (*PublicKey, error) {
	if pub == nil || pub.Curve == nil || pub.Curve.Params() != elliptic.P384().Params() || pub.X == nil || pub.Y == nil {
		return nil, errInvalidKey
	}
	var q affine
	if !q.x.setBig(pub.X) || !q.y.setBig(pub.Y) || !q.onCurve() {
		return nil, errInvalidKey
	}
	k := new(PublicKey)
	fillBlocks(k.blocks[:], &q)
	return k, nil
}

// Verify reports whether sig is a valid ASN.1 DER ECDSA signature of digest
// under k, with exactly the accept set of ecdsa.VerifyASN1 for the key k
// was made from. Both arguments are treated as public: the running time
// depends on them.
func (k *PublicKey) Verify(digest, sig []byte) bool {
	n := elliptic.P384().Params().N
	r, s, ok := parseSignature(sig, n)
	if !ok {
		return false
	}
	// FIPS 186-5, 6.4.2: e is the leftmost 384 bits of the digest.
	if len(digest) > 48 {
		digest = digest[:48]
	}
	e := new(big.Int).SetBytes(digest)
	w := new(big.Int).ModInverse(s, n)
	u1 := newScalar(e.Mod(e.Mul(e, w), n))
	u2 := newScalar(w.Mod(w.Mul(r, w), n))

	sum := k.blocks.combine(&u1, &u2)
	return sum.hasX(r, n)
}

// Verify is NewPublicKey and (*PublicKey).Verify in one call, for a key
// that is verified against once: it rejects what either rejects.
func Verify(pub *ecdsa.PublicKey, digest, sig []byte) bool {
	k, err := NewPublicKey(pub)
	return err == nil && k.Verify(digest, sig)
}

// hasX reports whether p is finite and its affine x-coordinate, reduced
// mod n, is r (0 < r < n). x = X/Z² is below p and p < 2n, so x is r or
// r+n; each candidate is compared as X = candidate·Z², which costs two
// multiplications where dividing by Z² would cost an inversion.
func (p *point) hasX(r, n *big.Int) bool {
	if p.z.isZero() {
		return false
	}
	var zz, c elem
	zz.sqr(&p.z)
	c.setBig(r)
	c.mul(&c, &zz)
	if c == p.x {
		return true
	}
	// r+n < p leaves r < p−n ≈ 2¹⁹⁰: never on an honest signature.
	if !c.setBig(new(big.Int).Add(r, n)) {
		return false
	}
	c.mul(&c, &zz)
	return c == p.x
}

// setBig sets z to v and reports whether 0 ≤ v < p.
func (z *elem) setBig(v *big.Int) bool {
	if v.Sign() < 0 || v.BitLen() > 384 {
		return false
	}
	var buf [48]byte
	v.FillBytes(buf[:])
	return z.setBytes(&buf)
}

// newScalar converts v, 0 ≤ v < 2³⁸⁴.
func newScalar(v *big.Int) scalar {
	var buf [48]byte
	v.FillBytes(buf[:])
	return limbs(&buf)
}

// parseSignature decodes SEQUENCE { INTEGER r, INTEGER s } with nothing
// after it and checks 0 < r, s < n. It accepts what ecdsa.VerifyASN1's
// parser accepts among encodings whose r and s can pass that check.
func parseSignature(sig []byte, n *big.Int) (r, s *big.Int, ok bool) {
	body, rest, ok := readDER(sig, 0x30)
	if !ok || len(rest) != 0 {
		return nil, nil, false
	}
	rb, body, ok := readDER(body, 0x02)
	if !ok {
		return nil, nil, false
	}
	sb, body, ok := readDER(body, 0x02)
	if !ok || len(body) != 0 || !minimalNonNegative(rb) || !minimalNonNegative(sb) {
		return nil, nil, false
	}
	r, s = new(big.Int).SetBytes(rb), new(big.Int).SetBytes(sb)
	if r.Sign() == 0 || r.Cmp(n) >= 0 || s.Sign() == 0 || s.Cmp(n) >= 0 {
		return nil, nil, false
	}
	return r, s, true
}

// readDER splits one element with the given tag off the front of in. Only
// short-form lengths (< 128) are read: DER allows the long form only from
// 128 bytes up, and an INTEGER that long exceeds n, while a SEQUENCE that
// long cannot consist of two INTEGERs below n.
func readDER(in []byte, tag byte) (value, rest []byte, ok bool) {
	if len(in) < 2 || in[0] != tag || in[1] >= 0x80 || int(in[1]) > len(in)-2 {
		return nil, nil, false
	}
	end := 2 + int(in[1])
	return in[2:end], in[end:], true
}

// minimalNonNegative reports whether b is the DER content of an INTEGER
// ≥ 0: non-empty, sign bit clear, no redundant leading zero byte.
func minimalNonNegative(b []byte) bool {
	if len(b) == 0 || b[0]&0x80 != 0 {
		return false
	}
	return len(b) == 1 || b[0] != 0 || b[1]&0x80 != 0
}
