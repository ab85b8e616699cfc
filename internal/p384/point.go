package p384

import (
	"crypto/elliptic"
	"math/big"
	"sync"
)

// affine is a finite point (x, y); the point at infinity has no affine
// form.
type affine struct{ x, y elem }

// point is (x/z², y/z³) in Jacobian coordinates; z = 0, and only z = 0,
// is the point at infinity, so the zero value is.
type point struct{ x, y, z elem }

var (
	curveB    = mustElem(elliptic.P384().Params().B)
	generator = affine{mustElem(elliptic.P384().Params().Gx), mustElem(elliptic.P384().Params().Gy)}
)

func mustElem(v *big.Int) (e elem) {
	if !e.setBig(v) {
		panic("p384: curve parameter not below p")
	}
	return e
}

// onCurve reports whether y² = x³ − 3x + b.
func (q *affine) onCurve() bool {
	var lhs, rhs, x3 elem
	lhs.sqr(&q.y)
	rhs.sqr(&q.x)
	rhs.mul(&rhs, &q.x)
	x3.add(&q.x, &q.x)
	x3.add(&x3, &q.x)
	rhs.sub(&rhs, &x3)
	rhs.add(&rhs, &curveB)
	return lhs == rhs
}

// double sets r = 2p (dbl-2001-b for a = −3). Infinity doubles to
// infinity through the formula: z3 = (y+z)² − y² − z² is 0 when z is.
func (r *point) double(p *point) {
	var delta, gamma, beta, alpha, t elem
	delta.sqr(&p.z)
	gamma.sqr(&p.y)
	beta.mul(&p.x, &gamma)
	t.sub(&p.x, &delta)
	alpha.add(&p.x, &delta)
	alpha.mul(&alpha, &t)
	t.add(&alpha, &alpha)
	alpha.add(&alpha, &t) // 3(x−δ)(x+δ)

	t.add(&p.y, &p.z)
	r.z.sqr(&t)
	r.z.sub(&r.z, &gamma)
	r.z.sub(&r.z, &delta)

	beta.add(&beta, &beta)
	beta.add(&beta, &beta) // 4β
	t.add(&beta, &beta)
	r.x.sqr(&alpha)
	r.x.sub(&r.x, &t) // α² − 8β

	gamma.sqr(&gamma)
	gamma.add(&gamma, &gamma)
	gamma.add(&gamma, &gamma)
	gamma.add(&gamma, &gamma) // 8γ²
	t.sub(&beta, &r.x)
	t.mul(&alpha, &t)
	r.y.sub(&t, &gamma)
}

// add sets r = p + q, any two points.
func (r *point) add(p, q *point) {
	if p.z.isZero() {
		*r = *q
		return
	}
	if q.z.isZero() {
		*r = *p
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, w, zz elem
	z1z1.sqr(&p.z)
	z2z2.sqr(&q.z)
	u1.mul(&p.x, &z2z2)
	u2.mul(&q.x, &z1z1)
	s1.mul(&p.y, &q.z)
	s1.mul(&s1, &z2z2)
	s2.mul(&q.y, &p.z)
	s2.mul(&s2, &z1z1)
	h.sub(&u2, &u1)
	w.sub(&s2, &s1)
	if h.isZero() && w.isZero() {
		r.double(p)
		return
	}
	zz.mul(&p.z, &q.z)
	r.finishAdd(&u1, &s1, &h, &w, &zz)
}

// addAffine sets r = p + q for a finite q: add with q.z = 1 folded away.
func (r *point) addAffine(p *point, q *affine) {
	if p.z.isZero() {
		*r = point{q.x, q.y, one}
		return
	}
	var z1z1, u2, s2, h, w elem
	z1z1.sqr(&p.z)
	u2.mul(&q.x, &z1z1)
	s2.mul(&q.y, &p.z)
	s2.mul(&s2, &z1z1)
	h.sub(&u2, &p.x)
	w.sub(&s2, &p.y)
	if h.isZero() && w.isZero() {
		r.double(p)
		return
	}
	r.finishAdd(&p.x, &p.y, &h, &w, &p.z)
}

// finishAdd is the shared tail of both additions (add-1998-cmo-2), given
// u1 = x1·z2², s1 = y1·z2³, h = u2 − u1, w = s2 − s1 and zz = z1·z2, with
// h and w not both zero. Opposite points (h = 0, w ≠ 0) need no branch:
// z3 = zz·h is 0. The arguments may point into r.
func (r *point) finishAdd(u1, s1, h, w, zz *elem) {
	var hh, hhh, v, t elem
	hh.sqr(h)
	hhh.mul(h, &hh)
	v.mul(u1, &hh)
	r.z.mul(zz, h)
	r.x.sqr(w)
	r.x.sub(&r.x, &hhh)
	r.x.sub(&r.x, &v)
	r.x.sub(&r.x, &v) // w² − h³ − 2·u1·h²
	t.sub(&v, &r.x)
	t.mul(w, &t)
	hhh.mul(s1, &hhh)
	r.y.sub(&t, &hhh) // w·(u1·h² − x3) − s1·h³
}

// The scalar multiplication works on 64-bit blocks: a scalar's limb b
// multiplies 2^(64b)·P, so six limbs recoded on their own and six tables
// of odd multiples of P, 2⁶⁴·P, …, 2³²⁰·P share one chain of 65 doublings
// where the whole scalar against one table would need 385.
const (
	numLimbs = 6
	limbBits = 64
	// nafLen is the most digits a limb's non-adjacent form can have: the
	// recoding of a limb with its top bits set carries into digit 64.
	nafLen = limbBits + 1

	// Window widths of the two scalars' non-adjacent forms, which are the
	// tables' sizes: 2^(w−2) odd multiples per limb. G's tables are built
	// once per process and read by every verification; a key's are built
	// once per key and kept with it (≈ 4.6 KB), so they stay narrow.
	baseWidth = 8
	keyWidth  = 5
)

// scalar is a value below 2³⁸⁴ as little-endian limbs.
type scalar [numLimbs]uint64

// keyBlocks and baseBlocks are a point P's tables at the two widths: for
// each limb b of a scalar and each odd digit 2i+1 below 2^(w−1), the
// affine point (2i+1)·2^(64b)·P at [b<<(w−2) + i].
type (
	keyBlocks  [numLimbs << (keyWidth - 2)]affine
	baseBlocks [numLimbs << (baseWidth - 2)]affine
)

// generatorBlocks returns G's tables.
var generatorBlocks = sync.OnceValue(func() *baseBlocks {
	t := new(baseBlocks)
	fillBlocks(t[:], &generator)
	return t
})

// fillBlocks fills t, a keyBlocks or a baseBlocks, for the finite point p
// of prime order: no multiple it computes is the point at infinity, and
// one inversion (Montgomery's trick) brings them all to affine form.
func fillBlocks(t []affine, p *affine) {
	per := len(t) / numLimbs
	jac := make([]point, len(t))
	block := point{p.x, p.y, one}
	for b := 0; b < len(t); b += per {
		if b > 0 {
			for range limbBits {
				block.double(&block)
			}
		}
		// block, 3·block, 5·block, …
		jac[b] = block
		var twice point
		twice.double(&block)
		for i := b + 1; i < b+per; i++ {
			jac[i].add(&jac[i-1], &twice)
		}
	}

	// prefix[i] = z0·…·zi; inv walks back down as 1/(z0·…·zi).
	prefix := make([]elem, len(jac))
	prefix[0] = jac[0].z
	for i := 1; i < len(jac); i++ {
		prefix[i].mul(&prefix[i-1], &jac[i].z)
	}
	var inv, zinv, zz elem
	inv.invert(&prefix[len(jac)-1])
	for i := len(jac) - 1; i >= 0; i-- {
		zinv = inv
		if i > 0 {
			zinv.mul(&inv, &prefix[i-1])
			inv.mul(&inv, &jac[i].z)
		}
		zz.sqr(&zinv)
		t[i].x.mul(&jac[i].x, &zz)
		zz.mul(&zz, &zinv)
		t[i].y.mul(&jac[i].y, &zz)
	}
}

// limbNAF writes the width-w non-adjacent form of v into naf, which must
// be zero, and returns its length: v = Σ naf[i]·2ⁱ, every non-zero digit
// is odd with |digit| < 2^(w−1), and any w consecutive digits hold at most
// one non-zero. Shifts by 64 and more read as 0, which is what bits beyond
// the limb are.
func limbNAF(v uint64, w uint, naf *[nafLen]int8) (n int) {
	var carry uint64
	for i := uint(0); i < nafLen; {
		if v>>i&1 == carry {
			i++
			continue
		}
		word := v>>i&(1<<w-1) + carry // odd, at most 2^w − 1
		carry = word >> (w - 1)
		naf[i] = int8(int(word) - int(carry<<w))
		n = int(i) + 1
		i += w
	}
	return n
}

// addDigit sets r = r + d·P for a non-zero wNAF digit d, given P's odd
// multiples P, 3P, 5P, ….
func (r *point) addDigit(odd []affine, d int8) {
	if d > 0 {
		r.addAffine(r, &odd[d>>1])
		return
	}
	q := odd[-d>>1]
	q.y.neg(&q.y)
	r.addAffine(r, &q)
}

// combine returns u1·G + u2·Q for the key Q whose tables qs are: one chain
// of at most 65 doublings shared by all twelve limbs (Straus), a mixed
// addition at each non-zero digit of each.
func (qs *keyBlocks) combine(u1, u2 *scalar) (r point) {
	var naf1, naf2 [numLimbs][nafLen]int8
	n := 0
	for b := range u1 {
		n = max(n, limbNAF(u1[b], baseWidth, &naf1[b]), limbNAF(u2[b], keyWidth, &naf2[b]))
	}
	gs := generatorBlocks()
	for i := n - 1; i >= 0; i-- {
		r.double(&r)
		for b := range u1 {
			if d := naf1[b][i]; d != 0 {
				r.addDigit(gs[b<<(baseWidth-2):], d)
			}
			if d := naf2[b][i]; d != 0 {
				r.addDigit(qs[b<<(keyWidth-2):], d)
			}
		}
	}
	return r
}
