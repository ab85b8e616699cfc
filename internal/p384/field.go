package p384

import (
	"encoding/binary"
	"math/bits"
)

// elem is an element of GF(p), p = 2³⁸⁴ − 2¹²⁸ − 2⁹⁶ + 2³² − 1, held in
// Montgomery form (a·2³⁸⁴ mod p) as six little-endian 64-bit limbs, always
// fully reduced. Methods may be called with the receiver aliasing an
// argument.
type elem [6]uint64

// The limbs of p; p3 is also p4 and p5.
const (
	p0 = 0x00000000ffffffff
	p1 = 0xffffffff00000000
	p2 = 0xfffffffffffffffe
	p3 = 0xffffffffffffffff
)

var (
	// one is 1 in Montgomery form: 2³⁸⁴ mod p = 2¹²⁸ + 2⁹⁶ − 2³² + 1.
	one = elem{0xffffffff00000001, 0x00000000ffffffff, 1}
	// rr is 2⁷⁶⁸ mod p; multiplying by it takes a value into Montgomery form.
	rr = elem{0xfffffffe00000001, 0x0000000200000000, 0xfffffffe00000000, 0x0000000200000000, 1}
)

// limbs reads a 48-byte big-endian value into little-endian limbs.
func limbs(b *[48]byte) (v [6]uint64) {
	for i := range v {
		v[i] = binary.BigEndian.Uint64(b[40-8*i:])
	}
	return v
}

// setBytes sets z to the 48-byte big-endian value b and reports whether
// that value is below p; it is the only way a value enters the field.
func (z *elem) setBytes(b *[48]byte) bool {
	*z = limbs(b)
	_, borrow := bits.Sub64(z[0], p0, 0)
	_, borrow = bits.Sub64(z[1], p1, borrow)
	_, borrow = bits.Sub64(z[2], p2, borrow)
	_, borrow = bits.Sub64(z[3], p3, borrow)
	_, borrow = bits.Sub64(z[4], p3, borrow)
	_, borrow = bits.Sub64(z[5], p3, borrow)
	z.mul(z, &rr)
	return borrow == 1
}

func (z *elem) isZero() bool {
	return z[0]|z[1]|z[2]|z[3]|z[4]|z[5] == 0
}

// add sets z = x + y.
func (z *elem) add(x, y *elem) {
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, c := bits.Add64(x[3], y[3], c)
	t4, c := bits.Add64(x[4], y[4], c)
	t5, c := bits.Add64(x[5], y[5], c)
	z.reduceOnce(t0, t1, t2, t3, t4, t5, c)
}

// reduceOnce sets z to the value t = carry·2³⁸⁴ + (t5 … t0), which must
// be below 2p, less p if it is not already below p. The select is
// arithmetic because the subtraction is needed about half the time, which
// a branch would mispredict; nothing here needs constant time.
func (z *elem) reduceOnce(t0, t1, t2, t3, t4, t5, carry uint64) {
	s0, b := bits.Sub64(t0, p0, 0)
	s1, b := bits.Sub64(t1, p1, b)
	s2, b := bits.Sub64(t2, p2, b)
	s3, b := bits.Sub64(t3, p3, b)
	s4, b := bits.Sub64(t4, p3, b)
	s5, b := bits.Sub64(t5, p3, b)
	keep := -(b &^ carry) // all ones when t < p
	z[0] = s0 ^ (s0^t0)&keep
	z[1] = s1 ^ (s1^t1)&keep
	z[2] = s2 ^ (s2^t2)&keep
	z[3] = s3 ^ (s3^t3)&keep
	z[4] = s4 ^ (s4^t4)&keep
	z[5] = s5 ^ (s5^t5)&keep
}

// sub sets z = x − y.
func (z *elem) sub(x, y *elem) {
	t0, b := bits.Sub64(x[0], y[0], 0)
	t1, b := bits.Sub64(x[1], y[1], b)
	t2, b := bits.Sub64(x[2], y[2], b)
	t3, b := bits.Sub64(x[3], y[3], b)
	t4, b := bits.Sub64(x[4], y[4], b)
	t5, b := bits.Sub64(x[5], y[5], b)
	wrapped := -b // all ones when x < y: add p back
	var c uint64
	z[0], c = bits.Add64(t0, wrapped&p0, 0)
	z[1], c = bits.Add64(t1, wrapped&p1, c)
	z[2], c = bits.Add64(t2, wrapped&p2, c)
	z[3], c = bits.Add64(t3, wrapped, c)
	z[4], c = bits.Add64(t4, wrapped, c)
	z[5], _ = bits.Add64(t5, wrapped, c)
}

// neg sets z = −x.
func (z *elem) neg(x *elem) { z.sub(&elem{}, x) }

// invert sets z = x⁻¹ = x^(p−2). Only the one-time base table pays for an
// inversion; Verify itself never leaves projective coordinates.
func (z *elem) invert(x *elem) {
	exp := [6]uint64{p0 - 2, p1, p2, p3, p3, p3}
	r := one
	for i := 383; i >= 0; i-- {
		r.sqr(&r)
		if exp[i/64]>>(uint(i)%64)&1 == 1 {
			r.mul(&r, x)
		}
	}
	*z = r
}

// mul sets z = x·y·2⁻³⁸⁴ mod p, the Montgomery product.
func (z *elem) mul(x, y *elem) {
	var t [12]uint64
	var a1, a2, a3, a4, a5, a6 uint64
	t[0], a1, a2, a3, a4, a5, a6 = mulAddRow(x[0], y, 0, 0, 0, 0, 0, 0)
	t[1], a1, a2, a3, a4, a5, a6 = mulAddRow(x[1], y, a1, a2, a3, a4, a5, a6)
	t[2], a1, a2, a3, a4, a5, a6 = mulAddRow(x[2], y, a1, a2, a3, a4, a5, a6)
	t[3], a1, a2, a3, a4, a5, a6 = mulAddRow(x[3], y, a1, a2, a3, a4, a5, a6)
	t[4], a1, a2, a3, a4, a5, a6 = mulAddRow(x[4], y, a1, a2, a3, a4, a5, a6)
	t[5], t[6], t[7], t[8], t[9], t[10], t[11] = mulAddRow(x[5], y, a1, a2, a3, a4, a5, a6)
	z.montReduce(&t)
}

// sqr sets z = x²·2⁻³⁸⁴ mod p: the fifteen products xᵢ·xⱼ, i < j, summed
// once and doubled, plus the six squares — 21 multiplications for mul's 36.
func (z *elem) sqr(x *elem) {
	x0, x1, x2, x3, x4, x5 := x[0], x[1], x[2], x[3], x[4], x[5]
	var c uint64
	// x0·(x1 … x5) lands on limbs 1 … 6.
	h1, t1 := bits.Mul64(x0, x1)
	h2, l2 := bits.Mul64(x0, x2)
	h3, l3 := bits.Mul64(x0, x3)
	h4, l4 := bits.Mul64(x0, x4)
	h5, l5 := bits.Mul64(x0, x5)
	t2, c := bits.Add64(l2, h1, 0)
	t3, c := bits.Add64(l3, h2, c)
	t4, c := bits.Add64(l4, h3, c)
	t5, c := bits.Add64(l5, h4, c)
	t6 := h5 + c
	// x1·(x2 … x5) on limbs 3 … 7.
	h2, l2 = bits.Mul64(x1, x2)
	h3, l3 = bits.Mul64(x1, x3)
	h4, l4 = bits.Mul64(x1, x4)
	h5, l5 = bits.Mul64(x1, x5)
	l3, c = bits.Add64(l3, h2, 0)
	l4, c = bits.Add64(l4, h3, c)
	l5, c = bits.Add64(l5, h4, c)
	h5 += c
	t3, c = bits.Add64(t3, l2, 0)
	t4, c = bits.Add64(t4, l3, c)
	t5, c = bits.Add64(t5, l4, c)
	t6, c = bits.Add64(t6, l5, c)
	t7 := h5 + c
	// x2·(x3 … x5) on limbs 5 … 8.
	h3, l3 = bits.Mul64(x2, x3)
	h4, l4 = bits.Mul64(x2, x4)
	h5, l5 = bits.Mul64(x2, x5)
	l4, c = bits.Add64(l4, h3, 0)
	l5, c = bits.Add64(l5, h4, c)
	h5 += c
	t5, c = bits.Add64(t5, l3, 0)
	t6, c = bits.Add64(t6, l4, c)
	t7, c = bits.Add64(t7, l5, c)
	t8 := h5 + c
	// x3·(x4, x5) on limbs 7 … 9, x4·x5 on limbs 9 and 10.
	h4, l4 = bits.Mul64(x3, x4)
	h5, l5 = bits.Mul64(x3, x5)
	l5, c = bits.Add64(l5, h4, 0)
	h5 += c
	t7, c = bits.Add64(t7, l4, 0)
	t8, c = bits.Add64(t8, l5, c)
	t9 := h5 + c
	h5, l5 = bits.Mul64(x4, x5)
	t9, c = bits.Add64(t9, l5, 0)
	t10 := h5 + c

	// Double (the sum is below 2⁷⁰⁴, so one more limb takes the top bit),
	// then add xᵢ² at limbs 2i and 2i+1.
	var t [12]uint64
	t11 := t10 >> 63
	t10 = t10<<1 | t9>>63
	t9 = t9<<1 | t8>>63
	t8 = t8<<1 | t7>>63
	t7 = t7<<1 | t6>>63
	t6 = t6<<1 | t5>>63
	t5 = t5<<1 | t4>>63
	t4 = t4<<1 | t3>>63
	t3 = t3<<1 | t2>>63
	t2 = t2<<1 | t1>>63
	t1 <<= 1
	h, l := bits.Mul64(x0, x0)
	t[0] = l
	t[1], c = bits.Add64(t1, h, 0)
	h, l = bits.Mul64(x1, x1)
	t[2], c = bits.Add64(t2, l, c)
	t[3], c = bits.Add64(t3, h, c)
	h, l = bits.Mul64(x2, x2)
	t[4], c = bits.Add64(t4, l, c)
	t[5], c = bits.Add64(t5, h, c)
	h, l = bits.Mul64(x3, x3)
	t[6], c = bits.Add64(t6, l, c)
	t[7], c = bits.Add64(t7, h, c)
	h, l = bits.Mul64(x4, x4)
	t[8], c = bits.Add64(t8, l, c)
	t[9], c = bits.Add64(t9, h, c)
	h, l = bits.Mul64(x5, x5)
	t[10], c = bits.Add64(t10, l, c)
	t[11] = t11 + h + c
	z.montReduce(&t)
}

// mulAddRow returns the seven limbs of a + x·y for a six-limb a. It cannot
// overflow: a + x·y ≤ (2³⁸⁴−1) + (2⁶⁴−1)(2³⁸⁴−1) < 2⁴⁴⁸.
func mulAddRow(x uint64, y *elem, a0, a1, a2, a3, a4, a5 uint64) (r0, r1, r2, r3, r4, r5, r6 uint64) {
	h0, l0 := bits.Mul64(x, y[0])
	h1, l1 := bits.Mul64(x, y[1])
	h2, l2 := bits.Mul64(x, y[2])
	h3, l3 := bits.Mul64(x, y[3])
	h4, l4 := bits.Mul64(x, y[4])
	h5, l5 := bits.Mul64(x, y[5])
	var c uint64
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	l4, c = bits.Add64(l4, h3, c)
	l5, c = bits.Add64(l5, h4, c)
	h5 += c
	r0, c = bits.Add64(a0, l0, 0)
	r1, c = bits.Add64(a1, l1, c)
	r2, c = bits.Add64(a2, l2, c)
	r3, c = bits.Add64(a3, l3, c)
	r4, c = bits.Add64(a4, l4, c)
	r5, c = bits.Add64(a5, l5, c)
	r6 = h5 + c
	return
}

// montReduce sets z = t·2⁻³⁸⁴ mod p for a twelve-limb t < p·2³⁸⁴: six
// rounds each clear the lowest limb by adding a multiple of p and shift
// one limb down, pulling the next high limb of t in at the top.
func (z *elem) montReduce(t *[12]uint64) {
	a0, a1, a2, a3, a4, a5, k := montRound(t[0], t[1], t[2], t[3], t[4], t[5], t[6], 0)
	a0, a1, a2, a3, a4, a5, k = montRound(a0, a1, a2, a3, a4, a5, t[7], k)
	a0, a1, a2, a3, a4, a5, k = montRound(a0, a1, a2, a3, a4, a5, t[8], k)
	a0, a1, a2, a3, a4, a5, k = montRound(a0, a1, a2, a3, a4, a5, t[9], k)
	a0, a1, a2, a3, a4, a5, k = montRound(a0, a1, a2, a3, a4, a5, t[10], k)
	a0, a1, a2, a3, a4, a5, k = montRound(a0, a1, a2, a3, a4, a5, t[11], k)
	z.reduceOnce(a0, a1, a2, a3, a4, a5, k)
}

// montRound is one word of Montgomery reduction on the seven-limb window
// w (carry is a pending carry into w6 from the round before): it returns
// (w + m·p)/2⁶⁴ with m chosen so that the sum's low limb is zero, and the
// carry out of its top limb.
//
// The prime's shape makes this multiplication-free. p ≡ 2³²−1 (mod 2⁶⁴)
// and (2³²−1)(2³²+1) = 2⁶⁴−1, so −p⁻¹ mod 2⁶⁴ = 2³²+1 and m = w0·(2³²+1)
// is a shift and an add. And m·p = m·2³⁸⁴ − N with
// N = m·(2¹²⁸ + 2⁹⁶ − 2³² + 1), a four-limb number whose low limb is w0
// by construction: the round subtracts N's upper three limbs from w1…w3,
// lets the borrow run to w6, and adds m there.
func montRound(w0, w1, w2, w3, w4, w5, w6, carry uint64) (r0, r1, r2, r3, r4, r5, carryOut uint64) {
	m := w0 + w0<<32
	// g = m·(2³²−1), two limbs.
	g0, b := bits.Sub64(m<<32, m, 0)
	g1 := m>>32 - b
	// N = m·2¹²⁸ + m·2⁹⁶ − g = (0, m<<32, x2, x3) − (g0, g1).
	x2, x3 := bits.Add64(m, m>>32, 0)
	_, b = bits.Sub64(0, g0, 0)
	n1, b := bits.Sub64(m<<32, g1, b)
	n2, b := bits.Sub64(x2, 0, b)
	n3 := x3 - b

	r0, b = bits.Sub64(w1, n1, 0)
	r1, b = bits.Sub64(w2, n2, b)
	r2, b = bits.Sub64(w3, n3, b)
	r3, b = bits.Sub64(w4, 0, b)
	r4, b = bits.Sub64(w5, 0, b)
	// b = 1 implies N > 0, so m ≥ 1 and m−b does not wrap.
	r5, carryOut = bits.Add64(w6, m-b, carry)
	return
}
