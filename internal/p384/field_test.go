package p384

import (
	"crypto/elliptic"
	"math/big"
	"math/rand"
	"testing"

	"revelio/internal/race"
)

var (
	bigP    = elliptic.P384().Params().P
	bigR    = new(big.Int).Lsh(big.NewInt(1), 384)
	bigRInv = new(big.Int).ModInverse(bigR, bigP)
)

// limbsToBig reads an elem's limbs as the integer they hold, which for a
// value in Montgomery form is a·2³⁸⁴ mod p.
func limbsToBig(e *elem) *big.Int {
	v := new(big.Int)
	for i := 5; i >= 0; i-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(e[i]))
	}
	return v
}

// limbsFromBig is the inverse: no Montgomery conversion.
func limbsFromBig(v *big.Int) (e elem) {
	k := newScalar(v)
	return elem(k)
}

// fromMont returns the field value an elem stands for.
func fromMont(e *elem) *big.Int {
	v := limbsToBig(e)
	return v.Mod(v.Mul(v, bigRInv), bigP)
}

// fieldEdges are the reduced limb patterns carries and borrows break on:
// 0, 1, p−1, p−2, each limb in turn all ones, the Montgomery constants,
// and a single bit on each side of every limb boundary.
func fieldEdges() []elem {
	edges := []elem{
		{},
		{1},
		{p0 - 1, p1, p2, p3, p3, p3},
		{p0 - 2, p1, p2, p3, p3, p3},
		{p0, p1, p2, p3, p3, p3 - 1},
		{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), p3 >> 1},
		one,
		rr,
	}
	for i := 0; i < 6; i++ {
		var allOnes, low, high elem
		allOnes[i] = ^uint64(0)
		low[i] = 1
		high[i] = 1 << 63
		edges = append(edges, allOnes, low, high)
	}
	return edges
}

// checkFieldOps holds add, sub, mul, sqr and neg on (x, y) to math/big,
// including with the receiver aliasing either argument.
func checkFieldOps(t *testing.T, x, y *elem) {
	t.Helper()
	bx, by := limbsToBig(x), limbsToBig(y)
	if bx.Cmp(bigP) >= 0 || by.Cmp(bigP) >= 0 {
		t.Fatalf("test input not reduced: %x %x", bx, by)
	}
	mod := func(v *big.Int) *big.Int { return v.Mod(v, bigP) }
	check := func(op string, got *elem, want *big.Int) {
		t.Helper()
		if limbsToBig(got).Cmp(want) != 0 {
			t.Fatalf("%s(%x, %x) = %x, want %x", op, bx, by, limbsToBig(got), want)
		}
	}
	var z elem
	z.add(x, y)
	check("add", &z, mod(new(big.Int).Add(bx, by)))
	z.sub(x, y)
	check("sub", &z, mod(new(big.Int).Sub(bx, by)))
	z.neg(x)
	check("neg", &z, mod(new(big.Int).Neg(bx)))
	product := mod(new(big.Int).Mul(new(big.Int).Mul(bx, by), bigRInv))
	z.mul(x, y)
	check("mul", &z, product)
	z.sqr(x)
	check("sqr", &z, mod(new(big.Int).Mul(new(big.Int).Mul(bx, bx), bigRInv)))

	z = *x
	z.mul(&z, y)
	check("mul aliasing x", &z, product)
	z = *y
	z.mul(x, &z)
	check("mul aliasing y", &z, product)
	z = *x
	z.sub(&z, y)
	check("sub aliasing x", &z, mod(new(big.Int).Sub(bx, by)))
	z = *y
	z.add(x, &z)
	check("add aliasing y", &z, mod(new(big.Int).Add(bx, by)))
}

func TestFieldEdges(t *testing.T) {
	edges := fieldEdges()
	for i := range edges {
		for j := range edges {
			checkFieldOps(t, &edges[i], &edges[j])
		}
	}
}

func TestFieldRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(384))
	edges := fieldEdges()
	pairs := 100_000
	if testing.Short() || race.Enabled {
		pairs = 5_000
	}
	for i := 0; i < pairs; i++ {
		x := limbsFromBig(new(big.Int).Rand(rnd, bigP))
		y := limbsFromBig(new(big.Int).Rand(rnd, bigP))
		// A third of the pairs put an edge on one side.
		switch i % 6 {
		case 0:
			x = edges[i/6%len(edges)]
		case 1:
			y = edges[i/6%len(edges)]
		}
		checkFieldOps(t, &x, &y)
	}
}

func TestFieldConstants(t *testing.T) {
	if got := limbsToBig(&elem{p0, p1, p2, p3, p3, p3}); got.Cmp(bigP) != 0 {
		t.Fatalf("p limbs = %x", got)
	}
	if got, want := limbsToBig(&one), new(big.Int).Mod(bigR, bigP); got.Cmp(want) != 0 {
		t.Errorf("one = %x, want %x", got, want)
	}
	if got, want := limbsToBig(&rr), new(big.Int).Mod(new(big.Int).Mul(bigR, bigR), bigP); got.Cmp(want) != 0 {
		t.Errorf("rr = %x, want %x", got, want)
	}
	curve := elliptic.P384().Params()
	for name, c := range map[string]struct {
		got  elem
		want *big.Int
	}{"b": {curveB, curve.B}, "gx": {generator.x, curve.Gx}, "gy": {generator.y, curve.Gy}} {
		if fromMont(&c.got).Cmp(c.want) != 0 {
			t.Errorf("%s = %x, want %x", name, fromMont(&c.got), c.want)
		}
	}
	if !generator.onCurve() {
		t.Error("generator not on curve")
	}
}

// TestSetBig: values below p enter in Montgomery form; p and above,
// negatives and anything wider than 384 bits do not enter.
func TestSetBig(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	var e elem
	for i := 0; i < 1000; i++ {
		v := new(big.Int).Rand(rnd, bigP)
		if !e.setBig(v) || fromMont(&e).Cmp(v) != 0 {
			t.Fatalf("setBig(%x) = %x", v, fromMont(&e))
		}
	}
	for name, v := range map[string]*big.Int{
		"p":       bigP,
		"p+1":     new(big.Int).Add(bigP, big.NewInt(1)),
		"2^384":   bigR,
		"2^384-1": new(big.Int).Sub(bigR, big.NewInt(1)),
		"2^400":   new(big.Int).Lsh(big.NewInt(1), 400),
		"-1":      big.NewInt(-1),
	} {
		if e.setBig(v) {
			t.Errorf("setBig(%s) accepted", name)
		}
	}
	if !e.setBig(new(big.Int).Sub(bigP, big.NewInt(1))) || !e.setBig(new(big.Int)) || !e.isZero() {
		t.Error("setBig rejected p-1 or 0")
	}
}

func TestInvert(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		var x, inv elem
		x.setBig(new(big.Int).Add(new(big.Int).Rand(rnd, new(big.Int).Sub(bigP, big.NewInt(1))), big.NewInt(1)))
		inv.invert(&x)
		inv.mul(&inv, &x)
		if inv != one {
			t.Fatalf("x·x⁻¹ = %x", fromMont(&inv))
		}
	}
}

var sinkElem elem

// BenchmarkFieldMul chains multiplications, as the point formulas do.
func BenchmarkFieldMul(b *testing.B) {
	x, y := generator.x, generator.y
	b.Run("mul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x.mul(&x, &y)
		}
	})
	b.Run("sqr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x.sqr(&x)
		}
	})
	sinkElem = x
}
