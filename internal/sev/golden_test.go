package sev

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"encoding/hex"
	"math/big"
	"testing"

	"revelio/internal/p384"
	"revelio/internal/race"
)

// The golden report: encoded, and signed, by the reflective
// binary.Write encoder this package had before it wrote the fixed layout
// by hand. Every field holds a distinct byte pattern, so a swapped,
// shifted or byte-reversed field shows.
const (
	goldenReportHex = "" +
		"52504e53020000000403020118171615141312112827262524232221404142434445464748494a4b4c4d4e4f50515253" +
		"5455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f808182838485868788898a8b8c8d8e8f90919293" +
		"9495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0bfbebd" +
		"bcbbbab9b8b7b6b5b4b3b2b1b0afaeadacabaaa9a8a7a6a5a4a3a2a1a09f9e9d9c9b9a999897969594939291908f8e8d" +
		"8c8b8a898887868584838281670030650230693460a099dd7ca85f6d692ee9457a29cf2c4da8e4dc9858442b977c5b64" +
		"257655ad089124c3316977e3600815d586d2023100f93cab33e1422d82d470ef75acf29506249665c7e8c96d5506ed7c" +
		"7d2c58a7e08334fb12aeef69b6d79729c6f7b30f4b"
	goldenVCEKX = "ff7764bcda96bb3862fef409fad8e326aa4b82ce6de2470119a554b0edbd327779273e80242cfc5d772d0d6bfe9ada5c"
	goldenVCEKY = "49af0af50d67a107e9ddb98ef474c95314b04da19a8e09269523c44fd295df55497b9b67c1c14d6846b423089152b7d8"
)

func goldenReport(t testing.TB) (raw []byte, want *Report, vcek *p384.PublicKey) {
	t.Helper()
	raw, err := hex.DecodeString(goldenReportHex)
	if err != nil {
		t.Fatal(err)
	}
	want = &Report{Version: ReportVersion, GuestSVN: 0x01020304, Policy: 0x1112131415161718, TCBVersion: 0x2122232425262728}
	for i := range want.Measurement {
		want.Measurement[i] = byte(0x40 + i)
	}
	for i := range want.ReportData {
		want.ReportData[i] = byte(0x80 + i)
	}
	for i := range want.ChipID {
		want.ChipID[i] = byte(0xc0 - i)
	}
	want.Signature = raw[SignedSize+2:]
	x, _ := new(big.Int).SetString(goldenVCEKX, 16)
	y, _ := new(big.Int).SetString(goldenVCEKY, 16)
	return raw, want, prepared(t, &ecdsa.PublicKey{Curve: elliptic.P384(), X: x, Y: y})
}

// TestGoldenReport pins the wire format in both directions and the signed
// bytes with it: the fixture's signature was made over the old encoder's
// output, so it verifies only if AppendSigned reproduces that byte for
// byte.
func TestGoldenReport(t *testing.T) {
	raw, want, vcek := goldenReport(t)
	enc, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, raw) {
		t.Errorf("MarshalBinary:\n got %x\nwant %x", enc, raw)
	}
	if !bytes.Equal(want.SignedBytes(), raw[:SignedSize]) {
		t.Errorf("SignedBytes:\n got %x\nwant %x", want.SignedBytes(), raw[:SignedSize])
	}
	var got Report
	if err := got.UnmarshalBinary(raw); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if got.Version != want.Version || got.GuestSVN != want.GuestSVN || got.Policy != want.Policy ||
		got.TCBVersion != want.TCBVersion || got.Measurement != want.Measurement ||
		got.ReportData != want.ReportData || got.ChipID != want.ChipID || !bytes.Equal(got.Signature, want.Signature) {
		t.Errorf("UnmarshalBinary:\n got %+v\nwant %+v", got, *want)
	}
	if err := got.Verify(vcek); err != nil {
		t.Errorf("golden signature: %v", err)
	}
	// The parsed signature is a copy: the caller's buffer may be reused.
	raw[len(raw)-1] ^= 1
	if err := got.Verify(vcek); err != nil {
		t.Errorf("report aliases the buffer it was parsed from: %v", err)
	}
}

// TestVerifyRejectsOtherCurves: a VCEK is a P-384 key by the SEV-SNP ABI,
// and Verify cannot be handed anything else: the only way to the key type
// it takes turns a key on any other curve away. (attest reports that as
// ErrBadSignature: TestChainProofCarriesKey.)
func TestVerifyRejectsOtherCurves(t *testing.T) {
	for name, curve := range map[string]elliptic.Curve{"P-256": elliptic.P256(), "P-521": elliptic.P521()} {
		key, err := ecdsa.GenerateKey(curve, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if vcek, err := p384.NewPublicKey(&key.PublicKey); err == nil || vcek != nil {
			t.Errorf("%s key: prepared as a VCEK key", name)
		}
	}
}

// TestEncodingAllocs guards the per-verification and per-cache-lookup
// paths: the signed bytes go into the caller's stack array and cost
// nothing, SignedBytes and MarshalBinary cost their result, and parsing
// costs the signature copy.
func TestEncodingAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race")
	}
	raw, report, _ := goldenReport(t)
	var sink int
	for name, c := range map[string]struct {
		max float64
		do  func()
	}{
		"AppendSigned into a stack array": {0, func() {
			var buf [SignedSize]byte
			sink += len(report.AppendSigned(buf[:0]))
		}},
		"SignedBytes": {1, func() { sink += len(report.SignedBytes()) }},
		"MarshalBinary": {1, func() {
			enc, _ := report.MarshalBinary()
			sink += len(enc)
		}},
		"UnmarshalBinary": {1, func() {
			var r Report
			_ = r.UnmarshalBinary(raw)
			sink += len(r.Signature)
		}},
	} {
		if got := testing.AllocsPerRun(100, c.do); got > c.max {
			t.Errorf("%s: %.0f allocations, want at most %.0f", name, got, c.max)
		}
	}
}
