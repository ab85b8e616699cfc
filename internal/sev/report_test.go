package sev

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha512"
	"errors"
	"testing"
	"testing/quick"

	"revelio/internal/p384"
)

func signedTestReport(t *testing.T) (*Report, *ecdsa.PrivateKey) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P384(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	r := &Report{
		Version:    ReportVersion,
		GuestSVN:   3,
		Policy:     0x30000,
		TCBVersion: 7,
	}
	for i := range r.Measurement {
		r.Measurement[i] = byte(i)
	}
	for i := range r.ReportData {
		r.ReportData[i] = byte(i * 2)
	}
	for i := range r.ChipID {
		r.ChipID[i] = byte(i * 3)
	}
	digest := sha512.Sum384(r.SignedBytes())
	sig, err := ecdsa.SignASN1(rand.Reader, key, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	r.Signature = sig
	return r, key
}

// prepared is the form Verify takes a VCEK key in.
func prepared(t testing.TB, pub *ecdsa.PublicKey) *p384.PublicKey {
	t.Helper()
	key, err := p384.NewPublicKey(pub)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestReportMarshalRoundTrip(t *testing.T) {
	r, key := signedTestReport(t)
	enc, err := r.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	var back Report
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if back.Version != r.Version || back.GuestSVN != r.GuestSVN ||
		back.Policy != r.Policy || back.TCBVersion != r.TCBVersion ||
		back.Measurement != r.Measurement || back.ReportData != r.ReportData ||
		back.ChipID != r.ChipID || !bytes.Equal(back.Signature, r.Signature) {
		t.Error("roundtrip field mismatch")
	}
	if err := back.Verify(prepared(t, &key.PublicKey)); err != nil {
		t.Errorf("Verify after roundtrip: %v", err)
	}
}

func TestReportVerifyWrongKey(t *testing.T) {
	r, _ := signedTestReport(t)
	other, err := ecdsa.GenerateKey(elliptic.P384(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(prepared(t, &other.PublicKey)); !errors.Is(err, ErrBadSignature) {
		t.Errorf("Verify with wrong key: err = %v, want ErrBadSignature", err)
	}
}

// TestReportFieldTamper flips each field after signing; verification must
// fail for all of them — this is what makes REPORT_DATA binding sound.
func TestReportFieldTamper(t *testing.T) {
	mutations := map[string]func(r *Report){
		"guest svn":   func(r *Report) { r.GuestSVN++ },
		"policy":      func(r *Report) { r.Policy ^= 1 },
		"tcb":         func(r *Report) { r.TCBVersion++ },
		"measurement": func(r *Report) { r.Measurement[0] ^= 1 },
		"report data": func(r *Report) { r.ReportData[63] ^= 0x80 },
		"chip id":     func(r *Report) { r.ChipID[10] ^= 1 },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			r, key := signedTestReport(t)
			mutate(r)
			if err := r.Verify(prepared(t, &key.PublicKey)); !errors.Is(err, ErrBadSignature) {
				t.Errorf("tampered %s verified: err = %v", name, err)
			}
		})
	}
}

func TestReportUnmarshalGarbage(t *testing.T) {
	r, _ := signedTestReport(t)
	enc, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]byte{
		"nil":       nil,
		"short":     enc[:10],
		"bad magic": append([]byte{0, 0, 0, 0}, enc[4:]...),
		"trailing":  append(append([]byte{}, enc...), 0xFF),
		"zero siglen": func() []byte {
			bad := append([]byte{}, enc...)
			// signature length field sits right after the signed portion
			off := len(r.SignedBytes())
			bad[off] = 0
			bad[off+1] = 0
			return bad[:off+2]
		}(),
	}
	for name, in := range inputs {
		var back Report
		if err := back.UnmarshalBinary(in); !errors.Is(err, ErrBadReport) {
			t.Errorf("%s: err = %v, want ErrBadReport", name, err)
		}
	}
}

func TestMarshalRejectsBadSignatureLength(t *testing.T) {
	r, _ := signedTestReport(t)
	r.Signature = nil
	if _, err := r.MarshalBinary(); err == nil {
		t.Error("empty signature accepted")
	}
	r.Signature = make([]byte, maxSigLen+1)
	if _, err := r.MarshalBinary(); err == nil {
		t.Error("oversized signature accepted")
	}
}

// Property: SignedBytes is injective over the fields we care about
// (distinct report data implies distinct signed bytes).
func TestSignedBytesInjective(t *testing.T) {
	f := func(a, b [8]byte) bool {
		r1, _ := newBareReport()
		r2, _ := newBareReport()
		copy(r1.ReportData[:], a[:])
		copy(r2.ReportData[:], b[:])
		same := a == b
		return bytes.Equal(r1.SignedBytes(), r2.SignedBytes()) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func newBareReport() (*Report, error) {
	return &Report{Version: ReportVersion}, nil
}

func BenchmarkReportSignVerify(b *testing.B) {
	key, err := ecdsa.GenerateKey(elliptic.P384(), rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	r := &Report{Version: ReportVersion}
	b.Run("sign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			digest := sha512.Sum384(r.SignedBytes())
			if _, err := ecdsa.SignASN1(rand.Reader, key, digest[:]); err != nil {
				b.Fatal(err)
			}
		}
	})
	digest := sha512.Sum384(r.SignedBytes())
	sig, err := ecdsa.SignASN1(rand.Reader, key, digest[:])
	if err != nil {
		b.Fatal(err)
	}
	r.Signature = sig
	vcek := prepared(b, &key.PublicKey)
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := r.Verify(vcek); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkReportMarshal(b *testing.B) {
	r := &Report{Version: ReportVersion, Signature: make([]byte, 96)}
	for i := range r.Signature {
		r.Signature[i] = 1
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}
