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

// Window widths of the two scalars' non-adjacent forms. The table for G is
// built once, so it can be wide and affine; the table for Q is built per
// call, so it is narrow and stays Jacobian.
const (
	baseWidth = 8
	keyWidth  = 5
)

// baseTable returns G, 3G, …, 127G in affine coordinates.
var baseTable = sync.OnceValue(func() *[1 << (baseWidth - 2)]affine {
	var jac [1 << (baseWidth - 2)]point
	oddMultiples(jac[:], &generator)
	// One inversion for all 64 (Montgomery's trick): prefix[i] = z0·…·zi.
	var prefix [len(jac)]elem
	prefix[0] = jac[0].z
	for i := 1; i < len(jac); i++ {
		prefix[i].mul(&prefix[i-1], &jac[i].z)
	}
	var inv, zinv, zz elem
	inv.invert(&prefix[len(jac)-1])
	table := new([len(jac)]affine)
	for i := len(jac) - 1; i >= 0; i-- {
		zinv = inv
		if i > 0 {
			zinv.mul(&inv, &prefix[i-1])
			inv.mul(&inv, &jac[i].z)
		}
		zz.sqr(&zinv)
		table[i].x.mul(&jac[i].x, &zz)
		zz.mul(&zz, &zinv)
		table[i].y.mul(&jac[i].y, &zz)
	}
	return table
})

// oddMultiples fills t with q, 3q, 5q, ….
func oddMultiples(t []point, q *affine) {
	t[0] = point{q.x, q.y, one}
	var twice point
	twice.double(&t[0])
	for i := 1; i < len(t); i++ {
		t[i].add(&t[i-1], &twice)
	}
}

// scalar is a value below 2³⁸⁴ as little-endian limbs.
type scalar [6]uint64

// window returns w ≤ 8 bits of k starting at bit i; bits from 384 up are 0.
func (k *scalar) window(i int, w uint) uint64 {
	limb, off := i/64, uint(i%64)
	if limb >= len(k) {
		return 0
	}
	v := k[limb] >> off
	if off+w > 64 && limb+1 < len(k) {
		v |= k[limb+1] << (64 - off)
	}
	return v & (1<<w - 1)
}

// nafLen is the most digits a non-adjacent form of a scalar can have.
const nafLen = 385

// wnaf writes the width-w non-adjacent form of k into naf, which must be
// zero, and returns its length: k = Σ naf[i]·2ⁱ, every non-zero digit is
// odd with |digit| < 2^(w−1), and any w consecutive digits hold at most
// one non-zero.
func (k *scalar) wnaf(w uint, naf *[nafLen]int8) (n int) {
	var carry uint64
	for i := 0; i < nafLen; {
		if k.window(i, 1) == carry {
			i++
			continue
		}
		word := k.window(i, w) + carry // odd
		carry = word >> (w - 1)
		naf[i] = int8(int(word) - int(carry<<w))
		n = i + 1
		i += int(w)
	}
	return n
}

// doubleScalarMult returns u1·G + u2·Q: one doubling chain shared by both
// scalars (Straus), an addition only at each non-zero wNAF digit.
func doubleScalarMult(u1, u2 *scalar, q *affine) (r point) {
	var naf1, naf2 [nafLen]int8
	n := max(u1.wnaf(baseWidth, &naf1), u2.wnaf(keyWidth, &naf2))
	gs := baseTable()
	var qs [1 << (keyWidth - 2)]point
	oddMultiples(qs[:], q)
	for i := n - 1; i >= 0; i-- {
		r.double(&r)
		if d := naf1[i]; d > 0 {
			r.addAffine(&r, &gs[d>>1])
		} else if d < 0 {
			g := gs[-d>>1]
			g.y.neg(&g.y)
			r.addAffine(&r, &g)
		}
		if d := naf2[i]; d > 0 {
			r.add(&r, &qs[d>>1])
		} else if d < 0 {
			p := qs[-d>>1]
			p.y.neg(&p.y)
			r.add(&r, &p)
		}
	}
	return r
}
