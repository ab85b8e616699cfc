package p384

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha512"
	"fmt"
	"math/big"
	mathrand "math/rand"
	"testing"

	"revelio/internal/race"
)

// input is one verification: everything the fuzz target and the tables
// hand to both verifiers.
type input struct {
	name         string
	x, y         *big.Int
	digest, sig  []byte
	otherCurve   bool // the key says P-256: rejected by design, the oracle is not consulted
	badKey       bool // not a point on P-384 with coordinates in range: NewPublicKey must turn it away
	wantAccepted bool
}

func (in *input) key(curve elliptic.Curve) *ecdsa.PublicKey {
	return &ecdsa.PublicKey{Curve: curve, X: in.x, Y: in.y}
}

// agree runs both verifiers on a P-384 key and fails the test if their
// verdicts differ; it returns the verdict. A key NewPublicKey turns away
// is a rejection, which the oracle must share.
func agree(t testing.TB, name string, pub *ecdsa.PublicKey, digest, sig []byte) bool {
	t.Helper()
	k, err := NewPublicKey(pub)
	if err != nil {
		if ecdsa.VerifyASN1(pub, digest, sig) {
			t.Fatalf("%s: NewPublicKey: %v, ecdsa.VerifyASN1 accepts\n key (%x, %x)\n digest %x\n sig %x",
				name, err, pub.X, pub.Y, digest, sig)
		}
		return false
	}
	return agreePrepared(t, name, k, pub, digest, sig)
}

// agreePrepared is agree for a key prepared once and verified against many
// times, as a verifier holds it: k must be NewPublicKey(pub).
func agreePrepared(t testing.TB, name string, k *PublicKey, pub *ecdsa.PublicKey, digest, sig []byte) bool {
	t.Helper()
	got, want := k.Verify(digest, sig), ecdsa.VerifyASN1(pub, digest, sig)
	if got != want {
		t.Fatalf("%s: (*PublicKey).Verify = %v, ecdsa.VerifyASN1 = %v\n key (%x, %x)\n digest %x\n sig %x",
			name, got, want, pub.X, pub.Y, digest, sig)
	}
	return got
}

func prepare(t testing.TB, pub *ecdsa.PublicKey) *PublicKey {
	t.Helper()
	k, err := NewPublicKey(pub)
	if err != nil {
		t.Fatalf("NewPublicKey(%x, %x): %v", pub.X, pub.Y, err)
	}
	return k
}

// derInteger and encodeSig are DER for SEQUENCE { INTEGER r, INTEGER s }
// without cryptobyte, so that the parser under test is not held to its
// oracle's own encoder.
func derInteger(v *big.Int) []byte {
	b := v.Bytes()
	if len(b) == 0 || b[0]&0x80 != 0 {
		b = append([]byte{0}, b...)
	}
	return append([]byte{0x02, byte(len(b))}, b...)
}

func encodeSig(r, s *big.Int) []byte {
	body := append(derInteger(r), derInteger(s)...)
	return append([]byte{0x30, byte(len(body))}, body...)
}

func decodeSig(t testing.TB, sig []byte) (r, s *big.Int) {
	t.Helper()
	r, s, ok := parseSignature(sig, bigN)
	if !ok {
		t.Fatalf("honest signature %x did not parse", sig)
	}
	return r, s
}

func newKey(t testing.TB) *ecdsa.PrivateKey {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P384(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func keyFromScalar(d *big.Int) *ecdsa.PrivateKey {
	q := refMul(d, refG)
	return &ecdsa.PrivateKey{PublicKey: ecdsa.PublicKey{Curve: elliptic.P384(), X: q.x, Y: q.y}, D: d}
}

func sign(t testing.TB, key *ecdsa.PrivateKey, digest []byte) []byte {
	t.Helper()
	sig, err := ecdsa.SignASN1(rand.Reader, key, digest)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// TestVerifyMatchesStdlib is the differential test: 10⁴ honest signatures
// under 50 keys, and every single-field mutation of each. The oracle rules
// on every honest signature — where a wrong kernel shows, as a rejection —
// and on all mutations of every eighth; the rest are held to the verdict
// their siblings got (reject, or accept for the high-s twin), since a
// rejection agrees with the oracle whether or not the arithmetic behind it
// was right. Each key is prepared once and verified against throughout, as
// a chain proof holds it. Sized down under -short and -race, where the
// oracle alone runs several times slower.
func TestVerifyMatchesStdlib(t *testing.T) {
	keys, perKey := 50, 200
	if testing.Short() || race.Enabled {
		perKey = 4
	}
	one := big.NewInt(1)
	for k := 0; k < keys; k++ {
		k := k
		t.Run(fmt.Sprintf("key%02d", k), func(t *testing.T) {
			t.Parallel()
			key, other := newKey(t), newKey(t)
			pub := &key.PublicKey
			prepared := map[*ecdsa.PublicKey]*PublicKey{pub: prepare(t, pub), &other.PublicKey: prepare(t, &other.PublicKey)}
			for i := 0; i < perKey; i++ {
				digest := sha512.Sum384([]byte(fmt.Sprintf("report %d/%d", k, i)))
				sig := sign(t, key, digest[:])
				if !agreePrepared(t, "honest", prepared[pub], pub, digest[:], sig) {
					t.Fatalf("honest signature rejected: %x", sig)
				}
				r, s := decodeSig(t, sig)
				flipped := digest
				flipped[i%48] ^= 1 << (i % 8)
				for name, m := range map[string]struct {
					pub    *ecdsa.PublicKey
					digest []byte
					sig    []byte
					want   bool
				}{
					"digest bit":   {pub, flipped[:], sig, false},
					"r+1":          {pub, digest[:], encodeSig(new(big.Int).Add(r, one), s), false},
					"r-1":          {pub, digest[:], encodeSig(new(big.Int).Sub(r, one), s), false},
					"s+1":          {pub, digest[:], encodeSig(r, new(big.Int).Add(s, one)), false},
					"s-1":          {pub, digest[:], encodeSig(r, new(big.Int).Sub(s, one)), false},
					"high-s twin":  {pub, digest[:], encodeSig(r, new(big.Int).Sub(bigN, s)), true},
					"key replaced": {&other.PublicKey, digest[:], sig, false},
				} {
					got := prepared[m.pub].Verify(m.digest, m.sig)
					if i%8 == 0 {
						got = agreePrepared(t, name, prepared[m.pub], m.pub, m.digest, m.sig)
					}
					if got != m.want {
						t.Fatalf("%s: verdict %v\n digest %x\n sig %x", name, got, digest, sig)
					}
				}
			}
		})
	}
}

// rejectionTable is every malformed or out-of-range input the verifier
// must turn away (and a few neighbours it must not), built around one
// honest signature. The fuzz target seeds from it.
func rejectionTable(t testing.TB) []input {
	key := newKey(t)
	digest := sha512.Sum384([]byte("rejection table"))
	sig := sign(t, key, digest[:])
	r, s := decodeSig(t, sig)
	row := func(name string, sig []byte) input {
		return input{name: name, x: key.X, y: key.Y, digest: digest[:], sig: sig}
	}
	keyRow := func(name string, x, y *big.Int) input {
		return input{name: name, x: x, y: y, digest: digest[:], sig: sig, badKey: true}
	}
	zero, one := new(big.Int), big.NewInt(1)
	// raw DER with a hand-set INTEGER body, for encodings encodeSig will not produce.
	rawInt := func(body ...byte) []byte { return append([]byte{0x02, byte(len(body))}, body...) }
	seq := func(parts ...[]byte) []byte {
		body := bytes.Join(parts, nil)
		return append([]byte{0x30, byte(len(body))}, body...)
	}
	sInt := derInteger(s)
	p256Key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// A point with x below 2³⁸⁴ − p ≈ 2¹²⁸, the only kind whose x + p is
	// still 48 bytes: it reaches the field's own range check where every
	// other key's x + p is turned away for its length.
	var smallX *refPoint
	for x := new(big.Int); smallX == nil; x.Add(x, one) {
		rhs := new(big.Int).Exp(x, big.NewInt(3), bigP)
		rhs.Sub(rhs, new(big.Int).Mul(big.NewInt(3), x)).Add(rhs, elliptic.P384().Params().B)
		if y := new(big.Int).ModSqrt(rhs.Mod(rhs, bigP), bigP); y != nil {
			smallX = &refPoint{new(big.Int).Set(x), y}
		}
	}
	// An r whose top bit is set, so that its DER carries a sign pad.
	padded, paddedSig := r, sig
	for padded.Bytes()[0]&0x80 == 0 {
		paddedSig = sign(t, key, digest[:])
		padded, _ = decodeSig(t, paddedSig)
	}

	return []input{
		{name: "honest", x: key.X, y: key.Y, digest: digest[:], sig: sig, wantAccepted: true},
		row("r = 0", encodeSig(zero, s)),
		row("s = 0", encodeSig(r, zero)),
		row("r = n", encodeSig(bigN, s)),
		row("s = n", encodeSig(r, bigN)),
		row("r = n+1", encodeSig(new(big.Int).Add(bigN, one), s)),
		row("s > n", encodeSig(r, new(big.Int).Add(bigN, s))),
		row("r = 2^384", encodeSig(bigR, s)),
		row("r = 2^392", encodeSig(new(big.Int).Lsh(one, 392), s)),
		row("r negative", seq(rawInt(0x80|r.Bytes()[0], 1, 2, 3), sInt)),
		row("r = -1", seq(rawInt(0xff), sInt)),
		row("r without its sign pad", seq(rawInt(padded.Bytes()...), paddedSig[2+2+1+len(padded.Bytes()):])),
		row("r non-minimal", seq(rawInt(append([]byte{0, 0}, r.Bytes()...)...), sInt)),
		row("r padded though high bit clear", seq(rawInt(0, 0x7f, 1), sInt)),
		row("r empty INTEGER", seq(rawInt(), sInt)),
		row("s non-minimal", seq(derInteger(r), rawInt(append([]byte{0, 0}, s.Bytes()...)...))),
		row("s = -1", seq(derInteger(r), rawInt(0xff))),
		row("s empty INTEGER", seq(derInteger(r), rawInt())),
		row("trailing byte after SEQUENCE", append(bytes.Clone(sig), 0)),
		row("trailing byte inside SEQUENCE", seq(sig[2:], []byte{0})),
		row("third INTEGER", seq(sig[2:], rawInt(1))),
		row("one INTEGER", seq(sInt)),
		row("empty signature", nil),
		row("empty SEQUENCE", []byte{0x30, 0}),
		row("SEQUENCE length too long", append([]byte{0x30, sig[1] + 1}, sig[2:]...)),
		row("SEQUENCE length too short", append([]byte{0x30, sig[1] - 1}, sig[2:]...)),
		row("long-form SEQUENCE length", append([]byte{0x30, 0x81, sig[1]}, sig[2:]...)),
		row("indefinite length", append([]byte{0x30, 0x80}, sig[2:]...)),
		row("wrong outer tag", append([]byte{0x31}, sig[1:]...)),
		row("wrong inner tag", seq(append([]byte{0x03}, sig[3:]...))),
		row("truncated", sig[:len(sig)-1]),
		keyRow("key off the curve", key.X, new(big.Int).Add(key.Y, one)),
		keyRow("key x = p", bigP, key.Y),
		keyRow("key y = 2^384-1", key.X, new(big.Int).Sub(bigR, one)),
		keyRow("key x + p", new(big.Int).Add(key.X, bigP), key.Y),
		keyRow("key y + p", key.X, new(big.Int).Add(key.Y, bigP)),
		keyRow("key x + p that fits 384 bits", new(big.Int).Add(smallX.x, bigP), smallX.y),
		keyRow("key x negative", new(big.Int).Neg(key.X), key.Y),
		keyRow("key y negated as an integer", key.X, new(big.Int).Neg(key.Y)),
		keyRow("key at infinity (0, 0)", zero, zero),
		keyRow("key x wider than 384 bits", new(big.Int).Lsh(one, 400), key.Y),
		{name: "key -Q", x: key.X, y: new(big.Int).Sub(bigP, key.Y), digest: digest[:], sig: sig},
		{name: "digest empty", x: key.X, y: key.Y, sig: sig},
		{name: "digest short", x: key.X, y: key.Y, digest: digest[:20], sig: sig},
		{name: "digest with a 49th byte", x: key.X, y: key.Y, digest: append(bytes.Clone(digest[:]), 0xaa), sig: sig, wantAccepted: true},
		// A key on P-256 is rejected by design: crypto/ecdsa would go on to
		// verify on that curve (and accept this row), which is not this
		// package's job. The second row is the same refusal seen from the
		// other side: everything about it is a valid P-384 verification
		// except the curve the key says it is on.
		{name: "key and signature on P-256", x: p256Key.X, y: p256Key.Y, digest: digest[:], sig: sign(t, p256Key, digest[:]), otherCurve: true},
		{name: "honest, but the key claims P-256", x: key.X, y: key.Y, digest: digest[:], sig: sig, otherCurve: true},
	}
}

func TestRejectionTable(t *testing.T) {
	rows := rejectionTable(t)
	for _, in := range rows {
		curve := elliptic.P384()
		if in.otherCurve {
			curve = elliptic.P256()
		}
		pub := in.key(curve)
		// The key guards sit in NewPublicKey: a row that names a bad key
		// fails there, before any signature is looked at, and no other row
		// does.
		if _, err := NewPublicKey(pub); (err != nil) != (in.badKey || in.otherCurve) {
			t.Errorf("%s: NewPublicKey: %v", in.name, err)
		}
		if in.otherCurve {
			if Verify(pub, in.digest, in.sig) {
				t.Errorf("%s: accepted", in.name)
			}
			continue
		}
		if got := agree(t, in.name, pub, in.digest, in.sig); got != in.wantAccepted {
			t.Errorf("%s: both verifiers say %v, want %v", in.name, got, in.wantAccepted)
		}
	}
	// Keys no serialized input can describe.
	honest := rows[0]
	for name, pub := range map[string]*ecdsa.PublicKey{
		"nil key":   nil,
		"nil curve": {X: honest.x, Y: honest.y},
		"nil X":     {Curve: elliptic.P384(), Y: honest.y},
		"nil Y":     {Curve: elliptic.P384(), X: honest.x},
	} {
		if Verify(pub, honest.digest, honest.sig) {
			t.Errorf("%s: accepted", name)
		}
		if k, err := NewPublicKey(pub); err == nil || k != nil {
			t.Errorf("%s: prepared", name)
		}
	}
}

// TestSignatureRange pins 0 < r, s < n at the parser. For s the rejection
// table would do (s = 0 has no inverse); for r nothing end-to-end can:
// with r ≡ 0 the sum is u1·G whatever the key, and a digest that puts its
// x-coordinate on 0 or n takes a discrete logarithm to find. That is why
// the check exists, and why only a direct test can hold it in place.
func TestSignatureRange(t *testing.T) {
	one := big.NewInt(1)
	values := map[string]*big.Int{"0": new(big.Int), "1": one, "n-1": new(big.Int).Sub(bigN, one),
		"n": bigN, "n+1": new(big.Int).Add(bigN, one), "2^384-1": new(big.Int).Sub(bigR, one)}
	valid := func(name string) bool { return name == "1" || name == "n-1" }
	for rn, r := range values {
		for sn, s := range values {
			gr, gs, ok := parseSignature(encodeSig(r, s), bigN)
			if ok != (valid(rn) && valid(sn)) {
				t.Errorf("r = %s, s = %s: ok = %v", rn, sn, ok)
			}
			if ok && (gr.Cmp(r) != 0 || gs.Cmp(s) != 0) {
				t.Errorf("r = %s, s = %s: parsed as (%x, %x)", rn, sn, gr, gs)
			}
		}
	}
}

// exceptionalCases are the inputs that drive the scalar multiplication
// through its corners: constructed, because no random input gets there.
func exceptionalCases(t testing.TB) []input {
	rnd := mathrand.New(mathrand.NewSource(8))
	var rows []input
	add := func(name string, key *ecdsa.PrivateKey, digest, sig []byte, want bool) {
		rows = append(rows, input{name: name, x: key.X, y: key.Y, digest: digest, sig: sig, wantAccepted: want})
	}
	digest := sha512.Sum384([]byte("exceptional"))
	zeroDigest := make([]byte, 48)

	// u1 = 0: the base-point scalar has no digits at all.
	key := newKey(t)
	add("digest 0", key, zeroDigest, sign(t, key, zeroDigest), true)
	// e = n reduces to the same thing.
	add("digest n", key, bigN.Bytes(), sign(t, key, bigN.Bytes()), true)
	add("digest 2^384-1", key, bytes.Repeat([]byte{0xff}, 48), sign(t, key, bytes.Repeat([]byte{0xff}, 48)), true)

	// Q = G and Q = −G: both tables hold the same points, so partial sums
	// run into their own doubles and inverses.
	for name, d := range map[string]*big.Int{
		"Q = G":  big.NewInt(1),
		"Q = -G": new(big.Int).Sub(bigN, big.NewInt(1)),
		"Q = 2G": big.NewInt(2),
	} {
		k := keyFromScalar(d)
		for i := 0; i < 8; i++ {
			dg := sha512.Sum384([]byte{byte(i)})
			add(fmt.Sprintf("%s #%d", name, i), k, dg[:], sign(t, k, dg[:]), true)
		}
		add(name+" digest 0", k, zeroDigest, sign(t, k, zeroDigest), true)
	}

	// u1·G + u2·Q = ∞: with Q = d·G, choose e = −r·d mod n, so that
	// u1 + u2·d = s⁻¹(e + r·d) = 0. Any r and s do; the sum has no
	// x-coordinate and the signature must be rejected.
	for i := 0; i < 4; i++ {
		d, r, s := randScalar(rnd), randScalar(rnd), randScalar(rnd)
		e := new(big.Int).Mul(r, d)
		e.Neg(e).Mod(e, bigN)
		add(fmt.Sprintf("sum at infinity #%d", i), keyFromScalar(d), e.FillBytes(make([]byte, 48)), encodeSig(r, s), false)
	}
	// The same with u1 = u2 (d = −1, e = r) and with Q = G (d = 1, e = −r).
	r, s := randScalar(rnd), randScalar(rnd)
	add("sum at infinity, Q = -G", keyFromScalar(new(big.Int).Sub(bigN, big.NewInt(1))), r.FillBytes(make([]byte, 48)), encodeSig(r, s), false)
	add("sum at infinity, Q = G", keyFromScalar(big.NewInt(1)), new(big.Int).Sub(bigN, r).FillBytes(make([]byte, 48)), encodeSig(r, s), false)

	// A key that is not on the curve, with a signature that is valid on the
	// curve the key is on. The addition formulas never use b, so without
	// the on-curve check they would carry the verification through on
	// y² = x³ − 3x + b′: with u1 = 0 (digest 0) the sum is u2·Q, pick
	// u2 = k, r = x(k·Q) mod n and s = r/k.
	off := &refPoint{key.X, new(big.Int).Add(key.Y, big.NewInt(1))}
	k := randScalar(rnd)
	r = new(big.Int).Mod(refMul(k, off).x, bigN)
	s = new(big.Int).Mul(r, new(big.Int).ModInverse(k, bigN))
	rows = append(rows, input{name: "valid on the curve the key is on, which is not P-384",
		x: off.x, y: off.y, digest: zeroDigest, sig: encodeSig(r, s.Mod(s, bigN))})

	// r below p−n: hasX tries its second candidate (and must not match).
	add("r small enough for r+n", key, digest[:], encodeSig(big.NewInt(5), s), false)

	// Q = ±2^(64k)·G: the key's block 0 is G's block k. Honest signatures
	// first; then signatures made for chosen u1 and u2 — R = u1·G + u2·Q,
	// r = x(R), s = r/u2, e = u1·s — that put two streams of the pass on one
	// table point at one position (coincidences, in point_test.go): the sum
	// is its own double there for +, and passes through infinity for −,
	// where it either recovers (accepted) or ends (no r can be valid).
	// These rows are the last: the fuzz corpus numbers its seeds in order.
	for k := 0; k < numLimbs; k++ {
		for _, negate := range []bool{false, true} {
			d, q := shiftedG(k, negate)
			name := fmt.Sprintf("Q = %s2^%d·G", map[bool]string{false: "", true: "-"}[negate], limbBits*k)
			sk := &ecdsa.PrivateKey{PublicKey: ecdsa.PublicKey{Curve: elliptic.P384(), X: q.x, Y: q.y}, D: d}
			for i := 0; i < 2; i++ {
				dg := sha512.Sum384([]byte{byte(k), byte(i)})
				add(fmt.Sprintf("%s #%d", name, i), sk, dg[:], sign(t, sk, dg[:]), true)
			}
			for i, c := range coincidences(k) {
				u1, u2 := c[0], c[1]
				sum := new(big.Int).Mul(u2, d)
				R := refMul(sum.Add(sum, u1).Mod(sum, bigN), refG)
				r := randScalar(rnd)
				if R != nil {
					r = new(big.Int).Mod(R.x, bigN)
				}
				s := new(big.Int).ModInverse(u2, bigN)
				s.Mul(s, r).Mod(s, bigN)
				e := new(big.Int).Mul(u1, s)
				add(fmt.Sprintf("%s coincidence #%d", name, i), sk, e.Mod(e, bigN).FillBytes(make([]byte, 48)), encodeSig(r, s), R != nil)
			}
		}
	}
	return rows
}

func TestExceptionalCases(t *testing.T) {
	for _, in := range exceptionalCases(t) {
		if got := agree(t, in.name, in.key(elliptic.P384()), in.digest, in.sig); got != in.wantAccepted {
			t.Errorf("%s: both verifiers say %v, want %v", in.name, got, in.wantAccepted)
		}
	}
}

// BenchmarkVerify puts the kernel next to the verifier it replaced:
// against a key that is held (prepared), what holding one costs (prepare),
// both together for a key seen once (oneshot), and crypto/ecdsa (stdlib).
func BenchmarkVerify(b *testing.B) {
	key := newKey(b)
	pub := &key.PublicKey
	digest := sha512.Sum384([]byte("benchmark"))
	sig := sign(b, key, digest[:])
	held := prepare(b, pub)
	for _, c := range []struct {
		name   string
		verify func() bool
	}{
		{"prepared", func() bool { return held.Verify(digest[:], sig) }},
		{"prepare", func() bool { k, err := NewPublicKey(pub); return err == nil && k != nil }},
		{"oneshot", func() bool { return Verify(pub, digest[:], sig) }},
		{"stdlib", func() bool { return ecdsa.VerifyASN1(pub, digest[:], sig) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !c.verify() {
					b.Fatal("honest signature rejected")
				}
			}
		})
	}
}
