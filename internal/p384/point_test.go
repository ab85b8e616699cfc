package p384

import (
	"crypto/elliptic"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"
)

var bigN = elliptic.P384().Params().N

// refPoint is the reference arithmetic the Jacobian code is held to:
// textbook affine formulas over math/big, nil for the point at infinity.
type refPoint struct{ x, y *big.Int }

var refG = &refPoint{elliptic.P384().Params().Gx, elliptic.P384().Params().Gy}

func refAdd(a, b *refPoint) *refPoint {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	var lambda *big.Int
	if a.x.Cmp(b.x) == 0 {
		if sum := new(big.Int).Add(a.y, b.y); sum.Mod(sum, bigP).Sign() == 0 {
			return nil
		}
		// (3x² − 3) / 2y
		num := new(big.Int).Mul(a.x, a.x)
		num.Sub(num, big.NewInt(1)).Mul(num, big.NewInt(3))
		den := new(big.Int).ModInverse(new(big.Int).Lsh(a.y, 1), bigP)
		lambda = num.Mul(num, den)
	} else {
		num := new(big.Int).Sub(b.y, a.y)
		den := new(big.Int).Sub(b.x, a.x)
		den.ModInverse(den.Mod(den, bigP), bigP)
		lambda = num.Mul(num, den)
	}
	lambda.Mod(lambda, bigP)
	x := new(big.Int).Mul(lambda, lambda)
	x.Sub(x, a.x).Sub(x, b.x).Mod(x, bigP)
	y := new(big.Int).Sub(a.x, x)
	y.Mul(y, lambda).Sub(y, a.y).Mod(y, bigP)
	return &refPoint{x, y}
}

func refNeg(a *refPoint) *refPoint {
	if a == nil {
		return nil
	}
	return &refPoint{a.x, new(big.Int).Mod(new(big.Int).Neg(a.y), bigP)}
}

func refMul(k *big.Int, a *refPoint) (r *refPoint) {
	for i := k.BitLen() - 1; i >= 0; i-- {
		r = refAdd(r, r)
		if k.Bit(i) == 1 {
			r = refAdd(r, a)
		}
	}
	return r
}

// toRef converts out of Jacobian coordinates with math/big's inversion.
func toRef(p *point) *refPoint {
	if p.z.isZero() {
		return nil
	}
	zinv := new(big.Int).ModInverse(fromMont(&p.z), bigP)
	zz := new(big.Int).Mul(zinv, zinv)
	x := new(big.Int).Mul(fromMont(&p.x), zz)
	y := new(big.Int).Mul(fromMont(&p.y), zz.Mul(zz, zinv))
	return &refPoint{x.Mod(x, bigP), y.Mod(y, bigP)}
}

func (a *refPoint) equal(b *refPoint) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.x.Cmp(b.x) == 0 && a.y.Cmp(b.y) == 0
}

func (a *refPoint) affine(t testing.TB) (q affine) {
	t.Helper()
	if !q.x.setBig(a.x) || !q.y.setBig(a.y) || !q.onCurve() {
		t.Fatalf("reference point (%x, %x) not on the curve", a.x, a.y)
	}
	return q
}

// jacobian returns a as (xλ², yλ³, λ): the same point under a
// representation no other point in the test shares.
func (a *refPoint) jacobian(t testing.TB, rnd *rand.Rand) (p point) {
	t.Helper()
	q := a.affine(t)
	var lambda, l2 elem
	lambda.setBig(new(big.Int).Add(new(big.Int).Rand(rnd, bigN), big.NewInt(1)))
	l2.sqr(&lambda)
	p.x.mul(&q.x, &l2)
	l2.mul(&l2, &lambda)
	p.y.mul(&q.y, &l2)
	p.z = lambda
	return p
}

func randScalar(rnd *rand.Rand) *big.Int {
	return new(big.Int).Add(new(big.Int).Rand(rnd, new(big.Int).Sub(bigN, big.NewInt(1))), big.NewInt(1))
}

// TestAddExceptionalCases feeds both additions the inputs the general
// formula is wrong or undefined on: P+P under two different Jacobian
// representations (h = w = 0: must double), P+(−P) (must be infinity),
// and infinity on either side.
func TestAddExceptionalCases(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	var infinity point
	for i := 0; i < 20; i++ {
		ref := refMul(randScalar(rnd), refG)
		twice := refAdd(ref, ref)
		p1, p2 := ref.jacobian(t, rnd), ref.jacobian(t, rnd)
		neg := refNeg(ref).jacobian(t, rnd)
		aff, negAff := ref.affine(t), refNeg(ref).affine(t)

		var r point
		for name, c := range map[string]struct {
			do   func()
			want *refPoint
		}{
			"add P+P":              {func() { r.add(&p1, &p2) }, twice},
			"add P+P same operand": {func() { r.add(&p1, &p1) }, twice},
			"addAffine P+P":        {func() { r.addAffine(&p1, &aff) }, twice},
			"add P+(-P)":           {func() { r.add(&p1, &neg) }, nil},
			"addAffine P+(-P)":     {func() { r.addAffine(&p1, &negAff) }, nil},
			"add inf+P":            {func() { r.add(&infinity, &p1) }, ref},
			"add P+inf":            {func() { r.add(&p1, &infinity) }, ref},
			"add inf+inf":          {func() { r.add(&infinity, &infinity) }, nil},
			"addAffine inf+P":      {func() { r.addAffine(&infinity, &aff) }, ref},
			"double P":             {func() { r.double(&p1) }, twice},
			"double inf":           {func() { r.double(&infinity) }, nil},
			"add aliasing r=p": {func() {
				r = p1
				r.add(&r, &p2)
			}, twice},
			"addAffine aliasing r=p": {func() {
				r = neg
				r.addAffine(&r, &aff)
			}, nil},
		} {
			c.do()
			if got := toRef(&r); !got.equal(c.want) {
				t.Fatalf("%s: got %+v, want %+v", name, got, c.want)
			}
		}
	}
}

// TestPointOpsMatchReference: random sums and doublings, including with the
// receiver aliasing an operand as the scalar multiplication uses them.
func TestPointOpsMatchReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		a, b := refMul(randScalar(rnd), refG), refMul(randScalar(rnd), refG)
		pa, pb, qb := a.jacobian(t, rnd), b.jacobian(t, rnd), b.affine(t)
		var r point
		r.add(&pa, &pb)
		if want := refAdd(a, b); !toRef(&r).equal(want) {
			t.Fatalf("add: got %+v, want %+v", toRef(&r), want)
		}
		r = pa
		r.addAffine(&r, &qb)
		if want := refAdd(a, b); !toRef(&r).equal(want) {
			t.Fatalf("addAffine: got %+v, want %+v", toRef(&r), want)
		}
		r.double(&r)
		if want := refAdd(refAdd(a, b), refAdd(a, b)); !toRef(&r).equal(want) {
			t.Fatalf("double: got %+v, want %+v", toRef(&r), want)
		}
	}
}

// shiftedG returns d = ±2^(64k) mod n and d·G: the keys whose tables hold
// the same points as G's, one block over, so that two streams of one pass
// can meet on the same or on opposite table entries.
func shiftedG(k int, negate bool) (d *big.Int, q *refPoint) {
	d = new(big.Int).Lsh(big.NewInt(1), uint(limbBits*k))
	if negate {
		d.Sub(bigN, d)
	}
	return d, refMul(d, refG)
}

// TestBlockTables: every entry of a key's and of G's tables is
// (2i+1)·2^(64b)·P, walked there by the textbook arithmetic alone.
func TestBlockTables(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	check := func(name string, table []affine, p *refPoint) {
		t.Helper()
		per := len(table) / numLimbs
		block := p
		for b := 0; b < numLimbs; b++ {
			if b > 0 {
				for i := 0; i < limbBits; i++ {
					block = refAdd(block, block)
				}
			}
			want, twice := block, refAdd(block, block)
			for i := 0; i < per; i++ {
				e := &table[b*per+i]
				if !e.onCurve() {
					t.Fatalf("%s: block %d entry %d not on curve", name, b, i)
				}
				if got := (&refPoint{fromMont(&e.x), fromMont(&e.y)}); !got.equal(want) {
					t.Fatalf("%s: block %d entry %d is not %d·2^%d·P", name, b, i, 2*i+1, limbBits*b)
				}
				want = refAdd(want, twice)
			}
		}
	}
	check("G", generatorBlocks()[:], refG)
	if len(generatorBlocks()) != numLimbs*64 || len(keyBlocks{}) != numLimbs*8 {
		t.Fatalf("table sizes %d and %d", len(generatorBlocks()), len(keyBlocks{}))
	}
	_, shifted := shiftedG(2, false)
	for name, p := range map[string]*refPoint{
		"random key":                        refMul(randScalar(rnd), refG),
		"Q = -G":                            refNeg(refG),
		"Q = 2^128·G":                       shifted,
		"Q = (n-1)/2·G, whose double is -G": refMul(new(big.Int).Rsh(bigN, 1), refG),
	} {
		q := p.affine(t)
		var blocks keyBlocks
		fillBlocks(blocks[:], &q)
		check(name, blocks[:], p)
	}
}

// scalarEdges are the recoding's corner inputs: 0, 1, limbs of all ones
// (each carries into its digit 64), alternating bits, single high bits,
// whole limbs of zeros between set ones.
func scalarEdges() []*big.Int {
	one := big.NewInt(1)
	alternating, _ := new(big.Int).SetString(strings.Repeat("aa", 48), 16)
	edges := []*big.Int{
		new(big.Int), one, big.NewInt(2), big.NewInt(127), big.NewInt(128), big.NewInt(129),
		new(big.Int).Sub(bigN, one),
		new(big.Int).Sub(bigR, one),
		new(big.Int).Lsh(one, 383),
		new(big.Int).Sub(new(big.Int).Lsh(one, 383), one),
		alternating, new(big.Int).Rsh(alternating, 1),
		// Limbs 1, 3 and 4 zero.
		new(big.Int).Add(new(big.Int).Lsh(big.NewInt(0x1234567), 320), new(big.Int).Add(new(big.Int).Lsh(one, 191), big.NewInt(5))),
	}
	for i := 1; i < numLimbs; i++ {
		edges = append(edges,
			new(big.Int).Lsh(one, uint(limbBits*i)),
			new(big.Int).Sub(new(big.Int).Lsh(one, uint(limbBits*i)), one),
			new(big.Int).Lsh(big.NewInt(0xff), uint(limbBits*i-4)),
			// One limb of all ones with nothing above it to absorb the carry.
			new(big.Int).Lsh(new(big.Int).SetUint64(math.MaxUint64), uint(limbBits*(i-1))))
	}
	return edges
}

// TestWNAF checks the recoding's contract limb by limb for both widths in
// use: each non-zero digit is odd and inside the table, no two non-zero
// digits are closer than the width, the digits sum back to the limb — digit
// 64 being the carry out of it — and the limbs' sums, each shifted to its
// place, to the scalar.
func TestWNAF(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	scalars := scalarEdges()
	for i := 0; i < 2000; i++ {
		scalars = append(scalars, new(big.Int).Rand(rnd, bigR))
	}
	for _, k := range scalars {
		for _, w := range []uint{keyWidth, baseWidth} {
			s := newScalar(k)
			whole := new(big.Int)
			for b := numLimbs - 1; b >= 0; b-- {
				var naf [nafLen]int8
				n := limbNAF(s[b], w, &naf)
				sum, last := new(big.Int), -int(w)
				for i := nafLen - 1; i >= 0; i-- {
					sum.Lsh(sum, 1).Add(sum, big.NewInt(int64(naf[i])))
				}
				for i, d := range naf {
					if d == 0 {
						continue
					}
					if i >= n || d%2 == 0 || int(d) >= 1<<(w-1) || int(d) <= -(1<<(w-1)) || i-last < int(w) {
						t.Fatalf("k=%x w=%d limb %d: digit %d at %d (previous at %d, length %d)", k, w, b, d, i, last, n)
					}
					last = i
				}
				if !sum.IsUint64() || sum.Uint64() != s[b] || (n > 0 && naf[n-1] == 0) || (n == 0) != (s[b] == 0) {
					t.Fatalf("k=%x w=%d limb %d: digits sum to %x, length %d", k, w, b, sum, n)
				}
				if naf[limbBits] != 0 && naf[limbBits] != 1 {
					t.Fatalf("k=%x w=%d limb %d: digit 64 is %d, not a carry", k, w, b, naf[limbBits])
				}
				whole.Lsh(whole, limbBits).Add(whole, sum)
			}
			if whole.Cmp(k) != 0 {
				t.Fatalf("k=%x w=%d: limbs sum to %x", k, w, whole)
			}
		}
	}
	// 2⁶⁴−1 is −1 + 2⁶⁴ at either width: the carry into digit 64, pinned.
	for _, w := range []uint{keyWidth, baseWidth} {
		var naf [nafLen]int8
		if n := limbNAF(math.MaxUint64, w, &naf); n != nafLen || naf[0] != -1 || naf[limbBits] != 1 {
			t.Errorf("w=%d: 2^64-1 recoded with length %d, digit 0 = %d, digit 64 = %d", w, n, naf[0], naf[limbBits])
		}
	}
}

// TestDoubleScalarMult holds u1·G + u2·Q to the reference, on random
// scalars and on the edges, with Q random and Q = ±2^(64k)·G (where the
// two tables hold the same points and sums meet their own doubles and
// inverses on the way). Every Q is d·G for a known d, so the reference is
// (u1 + u2·d)·G.
func TestDoubleScalarMult(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	type key struct {
		d      *big.Int
		blocks keyBlocks
	}
	newKey := func(d *big.Int, ref *refPoint) *key {
		k, q := &key{d: d}, ref.affine(t)
		fillBlocks(k.blocks[:], &q)
		return k
	}
	check := func(k *key, a, b *big.Int) {
		t.Helper()
		u1, u2 := newScalar(a), newScalar(b)
		got := k.blocks.combine(&u1, &u2)
		sum := new(big.Int).Mul(b, k.d)
		if want := refMul(sum.Add(sum, a).Mod(sum, bigN), refG); !toRef(&got).equal(want) {
			t.Fatalf("%x·G + %x·Q, Q = %x·G: got %+v, want %+v", a, b, k.d, toRef(&got), want)
		}
	}

	d := randScalar(rnd)
	keys := []*key{newKey(d, refMul(d, refG))}
	var shifted [numLimbs][2]*key
	for k := range shifted {
		for neg := range shifted[k] {
			shifted[k][neg] = newKey(shiftedG(k, neg == 1))
			keys = append(keys, shifted[k][neg])
		}
	}
	type pair struct{ u1, u2 *big.Int }
	var pairs []pair
	for _, a := range scalarEdges() {
		pairs = append(pairs, pair{a, randScalar(rnd)}, pair{randScalar(rnd), a}, pair{a, a},
			pair{a, new(big.Int).Mod(new(big.Int).Neg(a), bigN)})
	}
	for i := 0; i < 20; i++ {
		pairs = append(pairs, pair{randScalar(rnd), randScalar(rnd)})
	}
	// Every pair meets one key, in rotation.
	for i, c := range pairs {
		check(keys[i%len(keys)], c.u1, c.u2)
	}
	for k := range shifted {
		for _, c := range coincidences(k) {
			check(shifted[k][0], c[0], c[1])
			check(shifted[k][1], c[0], c[1])
		}
	}
}

// coincidences returns pairs (u1, u2) that put two streams of one pass on
// the same table point at the same position when Q = ±2^(64k)·G, whose
// block 0 is G's block k. A scalar d·2⁴⁰ + a with d and a odd and below 16
// recodes to the digits a at 0 and d at 40 at either width, so with
// u2 = d·2⁴⁰ + c and u1 = (d·2⁴⁰ + a)·2^(64k) the pass first adds d·T to
// infinity and then adds ±d·T to that: addAffine's equal-operands branch
// for +, and for − a sum at infinity with forty doublings and (a ≠ c) two
// additions still to come.
func coincidences(k int) (pairs [][2]*big.Int) {
	for _, c := range [][3]int64{{1, 0, 0}, {7, 3, 3}, {15, 1, 5}, {9, 13, 1}} {
		d, a, c := c[0]<<40, c[1], c[2]
		u1 := new(big.Int).Lsh(big.NewInt(d+a), uint(limbBits*k))
		pairs = append(pairs, [2]*big.Int{u1, big.NewInt(d + c)})
	}
	return pairs
}

// TestHasX drives the final comparison directly. Its second candidate,
// x = r+n, needs r < p−n ≈ 2¹⁹⁰, which no honest signature and no random
// input ever produces: the synthetic point is the only thing that reaches
// it.
func TestHasX(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	gap := new(big.Int).Sub(bigP, bigN)
	synthetic := func(x *big.Int) (p point) {
		var zz elem
		p.z.setBig(randScalar(rnd))
		zz.sqr(&p.z)
		p.x.setBig(x)
		p.x.mul(&p.x, &zz)
		p.y = one // hasX never reads y
		return p
	}
	for i := 0; i < 50; i++ {
		small := new(big.Int).Add(new(big.Int).Rand(rnd, new(big.Int).Sub(gap, big.NewInt(1))), big.NewInt(1))
		wrapped := synthetic(new(big.Int).Add(small, bigN))
		if !wrapped.hasX(small, bigN) {
			t.Fatalf("x = r+n with r = %x not matched", small)
		}
		direct := synthetic(small)
		if !direct.hasX(small, bigN) {
			t.Fatalf("x = r with r = %x not matched", small)
		}
		if direct.hasX(new(big.Int).Add(small, big.NewInt(1)), bigN) {
			t.Fatal("x = r matched r+1")
		}
		large := randScalar(rnd) // ≥ p−n with overwhelming probability: r+n ≥ p must be turned away
		if p := synthetic(large); !p.hasX(large, bigN) || p.hasX(new(big.Int).Sub(large, big.NewInt(1)), bigN) {
			t.Fatalf("r = %x", large)
		}
	}
	// The last r with a second candidate, and the first without.
	last := new(big.Int).Sub(gap, big.NewInt(1))
	if p := synthetic(new(big.Int).Sub(bigP, big.NewInt(1))); !p.hasX(last, bigN) {
		t.Error("x = p-1 = (p-n-1) + n not matched")
	}
	if p := synthetic(new(big.Int)); p.hasX(gap, bigN) {
		t.Error("r = p-n matched x = 0: r+n = p is not a field element")
	}
	// The zero value is the one infinity whose X equals r·Z² = 0; the sums
	// the addition formulas produce have X = w² ≠ 0 and fail the comparison
	// anyway.
	var infinity point
	if infinity.hasX(big.NewInt(1), bigN) {
		t.Error("the point at infinity has no x-coordinate")
	}
}
