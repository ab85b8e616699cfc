package p384

import (
	"crypto/elliptic"
	"math/big"
	"math/rand"
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

func TestBaseTable(t *testing.T) {
	table := baseTable()
	twoG := refAdd(refG, refG)
	want := refG
	for i := range table {
		if !table[i].onCurve() {
			t.Fatalf("entry %d not on curve", i)
		}
		if got := (&refPoint{fromMont(&table[i].x), fromMont(&table[i].y)}); !got.equal(want) {
			t.Fatalf("entry %d is not %d·G", i, 2*i+1)
		}
		want = refAdd(want, twoG)
	}
}

// scalarEdges are the recoding's corner inputs: 0, 1, runs of ones that
// carry the whole way up (n−1 nearly is one, 2³⁸⁴−1 is), single high bits.
func scalarEdges() []*big.Int {
	edges := []*big.Int{
		new(big.Int), big.NewInt(1), big.NewInt(2), big.NewInt(127), big.NewInt(128), big.NewInt(129),
		new(big.Int).Sub(bigN, big.NewInt(1)),
		new(big.Int).Sub(bigR, big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(1), 383),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 383), big.NewInt(1)),
	}
	for i := 1; i < 6; i++ {
		edges = append(edges,
			new(big.Int).Lsh(big.NewInt(1), uint(64*i)),
			new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(64*i)), big.NewInt(1)),
			new(big.Int).Lsh(big.NewInt(0xff), uint(64*i-4)))
	}
	return edges
}

// TestWNAF checks the recoding's contract for both widths in use: the
// digits sum back to the scalar, each non-zero digit is odd and inside
// the table, and no two non-zero digits are closer than the width.
func TestWNAF(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	scalars := scalarEdges()
	for i := 0; i < 2000; i++ {
		scalars = append(scalars, new(big.Int).Rand(rnd, bigR))
	}
	for _, k := range scalars {
		for _, w := range []uint{keyWidth, baseWidth} {
			var naf [nafLen]int8
			s := newScalar(k)
			n := s.wnaf(w, &naf)
			sum, last := new(big.Int), -int(w)
			for i := nafLen - 1; i >= 0; i-- {
				sum.Lsh(sum, 1).Add(sum, big.NewInt(int64(naf[i])))
			}
			for i, d := range naf {
				if d == 0 {
					continue
				}
				if i >= n || d%2 == 0 || int(d) >= 1<<(w-1) || int(d) <= -(1<<(w-1)) || i-last < int(w) {
					t.Fatalf("k=%x w=%d: digit %d at %d (previous at %d, length %d)", k, w, d, i, last, n)
				}
				last = i
			}
			if sum.Cmp(k) != 0 || (n > 0 && naf[n-1] == 0) {
				t.Fatalf("k=%x w=%d: digits sum to %x, length %d", k, w, sum, n)
			}
		}
	}
}

// TestDoubleScalarMult holds u1·G + u2·Q to the reference, on random
// scalars and on the edges, with Q random, G, and −G (where the two
// tables hold the same points and sums meet their own doubles and
// inverses on the way).
func TestDoubleScalarMult(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	keys := []*refPoint{refG, refNeg(refG), refMul(randScalar(rnd), refG)}
	type pair struct{ u1, u2 *big.Int }
	var pairs []pair
	for _, a := range scalarEdges() {
		pairs = append(pairs, pair{a, randScalar(rnd)}, pair{randScalar(rnd), a}, pair{a, a},
			pair{a, new(big.Int).Mod(new(big.Int).Neg(a), bigN)})
	}
	for i := 0; i < 20; i++ {
		pairs = append(pairs, pair{randScalar(rnd), randScalar(rnd)})
	}
	for i, c := range pairs {
		u1, u2 := newScalar(c.u1), newScalar(c.u2)
		base := refMul(c.u1, refG)
		// Every pair meets one key, in rotation.
		ref := keys[i%len(keys)]
		q := ref.affine(t)
		got := doubleScalarMult(&u1, &u2, &q)
		if want := refAdd(base, refMul(c.u2, ref)); !toRef(&got).equal(want) {
			t.Fatalf("%x·G + %x·Q, Q = (%x, …): got %+v, want %+v", c.u1, c.u2, ref.x, toRef(&got), want)
		}
	}
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
