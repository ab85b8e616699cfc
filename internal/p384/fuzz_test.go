package p384

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"math/big"
	"testing"
)

// FuzzVerifyMatchesStdlib holds Verify to crypto/ecdsa's verdict on
// arbitrary key coordinates, digest and signature bytes: never a
// different answer, never a panic. Random coordinates are almost never on
// the curve, so the seeds — the rejection table and the constructed
// exceptional cases — are what put valid keys in the corpus for the
// mutator to keep while it works on the other fields.
func FuzzVerifyMatchesStdlib(f *testing.F) {
	for _, in := range append(rejectionTable(f), exceptionalCases(f)...) {
		if in.otherCurve || in.x.Sign() < 0 || in.y.Sign() < 0 {
			continue // not expressible as unsigned bytes
		}
		f.Add(in.x.Bytes(), in.y.Bytes(), in.digest, in.sig)
	}
	f.Fuzz(func(t *testing.T, x, y, digest, sig []byte) {
		pub := &ecdsa.PublicKey{Curve: elliptic.P384(), X: new(big.Int).SetBytes(x), Y: new(big.Int).SetBytes(y)}
		agree(t, "fuzz", pub, digest, sig)
	})
}
