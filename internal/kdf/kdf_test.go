package kdf

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex fixture: %v", err)
	}
	return b
}

// TestHKDFVectorsRFC5869 checks the SHA-256 test vectors from RFC 5869
// Appendix A.
func TestHKDFVectorsRFC5869(t *testing.T) {
	tests := []struct {
		name                  string
		ikm, salt, info, want string
		length                int
	}{
		{
			name:   "A.1 basic",
			ikm:    "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b",
			salt:   "000102030405060708090a0b0c",
			info:   "f0f1f2f3f4f5f6f7f8f9",
			length: 42,
			want: "3cb25f25faacd57a90434f64d0362f2a" +
				"2d2d0a90cf1a5a4c5db02d56ecc4c5bf" +
				"34007208d5b887185865",
		},
		{
			name: "A.2 longer inputs",
			ikm: "000102030405060708090a0b0c0d0e0f" +
				"101112131415161718191a1b1c1d1e1f" +
				"202122232425262728292a2b2c2d2e2f" +
				"303132333435363738393a3b3c3d3e3f" +
				"404142434445464748494a4b4c4d4e4f",
			salt: "606162636465666768696a6b6c6d6e6f" +
				"707172737475767778797a7b7c7d7e7f" +
				"808182838485868788898a8b8c8d8e8f" +
				"909192939495969798999a9b9c9d9e9f" +
				"a0a1a2a3a4a5a6a7a8a9aaabacadaeaf",
			info: "b0b1b2b3b4b5b6b7b8b9babbbcbdbebf" +
				"c0c1c2c3c4c5c6c7c8c9cacbcccdcecf" +
				"d0d1d2d3d4d5d6d7d8d9dadbdcdddedf" +
				"e0e1e2e3e4e5e6e7e8e9eaebecedeeef" +
				"f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff",
			length: 82,
			want: "b11e398dc80327a1c8e7f78c596a4934" +
				"4f012eda2d4efad8a050cc4c19afa97c" +
				"59045a99cac7827271cb41c65e590e09" +
				"da3275600c2f09b8367793a9aca3db71" +
				"cc30c58179ec3e87c14c01d5c1f3434f" +
				"1d87",
		},
		{
			name:   "A.3 zero-length salt and info",
			ikm:    "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b",
			salt:   "",
			info:   "",
			length: 42,
			want: "8da4e775a563c18f715f802a063c5a31" +
				"b8a11f5c5ee1879ec3454e5f3c738d2d" +
				"9d201395faa4b61a96c8",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Derive(sha256.New,
				mustHex(t, tt.ikm), mustHex(t, tt.salt), mustHex(t, tt.info), tt.length)
			if err != nil {
				t.Fatalf("Derive: %v", err)
			}
			if want := mustHex(t, tt.want); !bytes.Equal(got, want) {
				t.Errorf("okm = %x, want %x", got, want)
			}
		})
	}
}

func TestHKDFLengthLimit(t *testing.T) {
	prk := Extract(sha256.New, []byte("ikm"), nil)
	if _, err := Expand(sha256.New, prk, nil, 255*32+1); !errors.Is(err, ErrHKDFLength) {
		t.Errorf("Expand over limit: err = %v, want ErrHKDFLength", err)
	}
	if _, err := Expand(sha256.New, prk, nil, 255*32); err != nil {
		t.Errorf("Expand at limit: %v", err)
	}
	if _, err := Expand(sha256.New, prk, nil, -1); err == nil {
		t.Error("Expand(-1) succeeded, want error")
	}
}

func TestHKDFDeterministicAndDomainSeparated(t *testing.T) {
	a, err := Derive(sha256.New, []byte("secret"), []byte("salt"), []byte("ctx-a"), 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Derive(sha256.New, []byte("secret"), []byte("salt"), []byte("ctx-a"), 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("same inputs produced different keys")
	}
	c, err := Derive(sha256.New, []byte("secret"), []byte("salt"), []byte("ctx-b"), 32)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Error("different info produced identical keys")
	}
}

// TestPBKDF2VectorsRFC6070 checks the HMAC-SHA1 vectors from RFC 6070.
func TestPBKDF2VectorsRFC6070(t *testing.T) {
	tests := []struct {
		password, salt string
		iter, keyLen   int
		want           string
	}{
		{"password", "salt", 1, 20, "0c60c80f961f0e71f3a9b524af6012062fe037a6"},
		{"password", "salt", 2, 20, "ea6c014dc72d6f8ccd1ed92ace1d41f0d8de8957"},
		{"password", "salt", 4096, 20, "4b007901b765489abead49d926f721d065a429c1"},
		{"passwordPASSWORDpassword", "saltSALTsaltSALTsaltSALTsaltSALTsalt",
			4096, 25, "3d2eec4fe41c849b80c8d83662c0e44a8b291a964cf2f07038"},
	}
	for _, tt := range tests {
		got, err := PBKDF2(sha1.New, []byte(tt.password), []byte(tt.salt), tt.iter, tt.keyLen)
		if err != nil {
			t.Fatalf("PBKDF2: %v", err)
		}
		if want, _ := hex.DecodeString(tt.want); !bytes.Equal(got, want) {
			t.Errorf("PBKDF2(%q,%q,%d,%d) = %x, want %s",
				tt.password, tt.salt, tt.iter, tt.keyLen, got, tt.want)
		}
	}
}

func TestPBKDF2Validation(t *testing.T) {
	if _, err := PBKDF2(sha256.New, []byte("p"), []byte("s"), 0, 16); err == nil {
		t.Error("iter=0 succeeded, want error")
	}
	if _, err := PBKDF2(sha256.New, []byte("p"), []byte("s"), 1, -1); err == nil {
		t.Error("keyLen=-1 succeeded, want error")
	}
	got, err := PBKDF2(sha256.New, []byte("p"), []byte("s"), 1, 0)
	if err != nil || len(got) != 0 {
		t.Errorf("keyLen=0: got %x err %v, want empty and nil", got, err)
	}
}

// Property: HKDF output length always matches the request, and truncation is
// a prefix (streaming property of the counter construction).
func TestHKDFPrefixProperty(t *testing.T) {
	f := func(ikm, salt, info []byte, n uint8) bool {
		long, err := Derive(sha256.New, ikm, salt, info, int(n)+16)
		if err != nil {
			return false
		}
		short, err := Derive(sha256.New, ikm, salt, info, int(n))
		if err != nil {
			return false
		}
		return len(short) == int(n) && bytes.Equal(long[:int(n)], short)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: PBKDF2 is sensitive to every input.
func TestPBKDF2InputSensitivity(t *testing.T) {
	f := func(pw, salt []byte) bool {
		if len(pw) == 0 {
			pw = []byte{0}
		}
		base, err := PBKDF2(sha256.New, pw, salt, 2, 32)
		if err != nil {
			return false
		}
		pw2 := append(append([]byte{}, pw...), 'x')
		diffPw, err := PBKDF2(sha256.New, pw2, salt, 2, 32)
		if err != nil {
			return false
		}
		salt2 := append(append([]byte{}, salt...), 'y')
		diffSalt, err := PBKDF2(sha256.New, pw, salt2, 2, 32)
		if err != nil {
			return false
		}
		diffIter, err := PBKDF2(sha256.New, pw, salt, 3, 32)
		if err != nil {
			return false
		}
		return !bytes.Equal(base, diffPw) &&
			!bytes.Equal(base, diffSalt) &&
			!bytes.Equal(base, diffIter)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHKDFDerive(b *testing.B) {
	ikm := []byte("input key material")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Derive(sha256.New, ikm, nil, []byte("ctx"), 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPBKDF2Paper1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := PBKDF2(sha256.New, []byte("pw"), []byte("salt"), 1000, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// pbkdf2Reference is RFC 8018 §5.2 written the obvious way — a new HMAC
// per iteration — and is what PBKDF2 must keep matching byte for byte.
func pbkdf2Reference(h func() hash.Hash, password, salt []byte, iter, keyLen int) []byte {
	hashLen := h().Size()
	var out []byte
	for block := 1; len(out) < keyLen; block++ {
		mac := hmac.New(h, password)
		mac.Write(salt)
		mac.Write(binary.BigEndian.AppendUint32(nil, uint32(block)))
		u := mac.Sum(nil)
		acc := append([]byte(nil), u...)
		for i := 1; i < iter; i++ {
			mac = hmac.New(h, password)
			mac.Write(u)
			u = mac.Sum(nil)
			for j := range acc {
				acc[j] ^= u[j]
			}
		}
		out = append(out, acc[:hashLen]...)
	}
	return out[:keyLen]
}

// plainHash hides a hash's BinaryMarshaler, which sends crypto/hmac's
// Reset down its other path (re-hashing the pads instead of restoring
// them).
type plainHash struct{ hash.Hash }

// TestPBKDF2MatchesReference: the one-HMAC-per-call loop is the same
// function as the reference over random inputs — passwords longer than the
// hash's block, empty salts, multi-block outputs, both HMAC reset paths.
func TestPBKDF2MatchesReference(t *testing.T) {
	hashes := map[string]func() hash.Hash{
		"sha1":   sha1.New,
		"sha256": sha256.New,
		"plain":  func() hash.Hash { return plainHash{sha256.New()} },
	}
	for name, h := range hashes {
		f := func(pw, salt []byte, iter uint8, keyLen uint8) bool {
			it := int(iter)%40 + 1
			got, err := PBKDF2(h, pw, salt, it, int(keyLen))
			return err == nil && bytes.Equal(got, pbkdf2Reference(h, pw, salt, it, int(keyLen)))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	long := bytes.Repeat([]byte("k"), 200) // keyed through the hash, not padded
	got, err := PBKDF2(sha256.New, long, nil, 7, 70)
	if err != nil || !bytes.Equal(got, pbkdf2Reference(sha256.New, long, nil, 7, 70)) {
		t.Errorf("long password, 3 blocks: got %x err %v", got, err)
	}
}

// TestPBKDF2RoundsCountsIterationsTimesBlocks: the round counter is the
// work actually done — one HMAC per iteration per output block.
func TestPBKDF2RoundsCountsIterationsTimesBlocks(t *testing.T) {
	for _, tt := range []struct{ iter, keyLen, want int }{
		{1, 32, 1}, {1000, 32, 1000}, {10, 33, 20}, {5, 0, 0},
	} {
		before := PBKDF2Rounds()
		if _, err := PBKDF2(sha256.New, []byte("pw"), []byte("salt"), tt.iter, tt.keyLen); err != nil {
			t.Fatal(err)
		}
		if got := PBKDF2Rounds() - before; got != uint64(tt.want) {
			t.Errorf("iter=%d keyLen=%d: %d rounds, want %d", tt.iter, tt.keyLen, got, tt.want)
		}
	}
}

// TestPBKDF2AllocationsDoNotGrowWithIterations: the loop allocates
// nothing, so 1000 iterations allocate exactly what 10 do.
func TestPBKDF2AllocationsDoNotGrowWithIterations(t *testing.T) {
	allocs := func(iter int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := PBKDF2(sha256.New, []byte("pw"), []byte("salt"), iter, 32); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(1000); many != few {
		t.Errorf("1000 iterations allocate %.0f objects, 10 allocate %.0f", many, few)
	}
}
