package xts

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
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

// engine is one of the block engines a Cipher can run on.
type engine struct {
	name string
	new  func(key []byte) (*Cipher, error)
}

// engines lists the engines this build and CPU offer: always crypto/aes,
// plus the AES-NI kernel where NewCipher would select it. The published
// vectors run over each.
func engines() []engine {
	e := []engine{{"generic", newGeneric}}
	if newKernel(make([]byte, 32)) != nil {
		e = append(e, engine{"kernel", NewCipher})
	}
	return e
}

// TestXTSVectorsIEEE1619 checks published IEEE P1619 XTS-AES-128 vectors.
func TestXTSVectorsIEEE1619(t *testing.T) {
	tests := []struct {
		name       string
		key        string
		sector     uint64
		plaintext  string
		ciphertext string
	}{
		{
			// IEEE P1619 Vector 1
			name:   "vector1-zero",
			key:    "00000000000000000000000000000000" + "00000000000000000000000000000000",
			sector: 0,
			plaintext: "00000000000000000000000000000000" +
				"00000000000000000000000000000000",
			ciphertext: "917cf69ebd68b2ec9b9fe9a3eadda692" +
				"cd43d2f59598ed858c02c2652fbf922e",
		},
		{
			// IEEE P1619 Vector 2
			name:   "vector2",
			key:    "11111111111111111111111111111111" + "22222222222222222222222222222222",
			sector: 0x3333333333,
			plaintext: "44444444444444444444444444444444" +
				"44444444444444444444444444444444",
			ciphertext: "c454185e6a16936e39334038acef838b" +
				"fb186fff7480adc4289382ecd6d394f0",
		},
		{
			// IEEE P1619 Vector 3
			name:   "vector3",
			key:    "fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0" + "22222222222222222222222222222222",
			sector: 0x3333333333,
			plaintext: "44444444444444444444444444444444" +
				"44444444444444444444444444444444",
			ciphertext: "af85336b597afc1a900b2eb21ec949d2" +
				"92df4c047e0b21532186a5971a227a89",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, e := range engines() {
				t.Run(e.name, func(t *testing.T) {
					c, err := e.new(mustHex(t, tt.key))
					if err != nil {
						t.Fatalf("NewCipher: %v", err)
					}
					pt := mustHex(t, tt.plaintext)
					want := mustHex(t, tt.ciphertext)
					got := make([]byte, len(pt))
					if err := c.Encrypt(got, pt, tt.sector); err != nil {
						t.Fatalf("Encrypt: %v", err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("ciphertext = %x, want %x", got, want)
					}
					back := make([]byte, len(got))
					if err := c.Decrypt(back, got, tt.sector); err != nil {
						t.Fatalf("Decrypt: %v", err)
					}
					if !bytes.Equal(back, pt) {
						t.Errorf("roundtrip = %x, want %x", back, pt)
					}
				})
			}
		})
	}
}

func TestXTSKeySizeValidation(t *testing.T) {
	for _, n := range []int{0, 16, 31, 33, 48, 65} {
		if _, err := NewCipher(make([]byte, n)); !errors.Is(err, ErrKeySize) {
			t.Errorf("NewCipher(%d bytes): err = %v, want ErrKeySize", n, err)
		}
	}
	for _, n := range []int{32, 64} {
		if _, err := NewCipher(make([]byte, n)); err != nil {
			t.Errorf("NewCipher(%d bytes): %v", n, err)
		}
	}
}

func TestXTSShortData(t *testing.T) {
	c, err := NewCipher(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize-1)
	if err := c.Encrypt(buf, buf, 0); !errors.Is(err, ErrDataSize) {
		t.Errorf("Encrypt(15 bytes): err = %v, want ErrDataSize", err)
	}
	if err := c.Encrypt(make([]byte, 16), make([]byte, 17), 0); err == nil {
		t.Error("mismatched dst/src lengths succeeded, want error")
	}
}

func TestXTSSectorSeparation(t *testing.T) {
	c, err := NewCipher(mustHex(t,
		"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"))
	if err != nil {
		t.Fatal(err)
	}
	pt := bytes.Repeat([]byte{0xAB}, 64)
	ct0 := make([]byte, 64)
	ct1 := make([]byte, 64)
	if err := c.Encrypt(ct0, pt, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Encrypt(ct1, pt, 1); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct0, ct1) {
		t.Error("identical plaintext at different sectors encrypted identically")
	}
	// Within a sector, identical plaintext blocks must also differ
	// (positional tweak progression).
	if bytes.Equal(ct0[:16], ct0[16:32]) {
		t.Error("identical blocks within a sector encrypted identically")
	}
}

// Property: encrypt/decrypt round-trips for arbitrary lengths >= 16,
// including ciphertext-stealing tails.
func TestXTSRoundTripProperty(t *testing.T) {
	c, err := NewCipher(mustHex(t,
		"2718281828459045235360287471352631415926535897932384626433832795"))
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, extra uint16, sector uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + int(extra)%497 // exercises many tail lengths
		pt := make([]byte, n)
		rng.Read(pt)
		ct := make([]byte, n)
		if err := c.Encrypt(ct, pt, sector); err != nil {
			return false
		}
		if bytes.Equal(ct, pt) {
			return false
		}
		back := make([]byte, n)
		if err := c.Decrypt(back, ct, sector); err != nil {
			return false
		}
		return bytes.Equal(back, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestXTSCiphertextStealingVector checks an IEEE P1619 vector with a
// partial final block (vector 15, 17-byte unit).
func TestXTSCiphertextStealingVector(t *testing.T) {
	key := mustHex(t,
		"fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0"+"bfbebdbcbbbab9b8b7b6b5b4b3b2b1b0")
	// Expected value cross-validated against OpenSSL's XTS implementation
	// (same key/tweak/plaintext through EVP aes-256-xts).
	pt := mustHex(t, "000102030405060708090a0b0c0d0e0f10")
	want := mustHex(t, "641610679dcbf92e505c41333fb06c2a95")
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			c, err := e.new(key)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(pt))
			if err := c.Encrypt(got, pt, 0x9a78563412); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("ciphertext = %x, want %x", got, want)
			}
			back := make([]byte, len(pt))
			if err := c.Decrypt(back, got, 0x9a78563412); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, pt) {
				t.Errorf("roundtrip = %x, want %x", back, pt)
			}
		})
	}
}

func TestXTSInPlace(t *testing.T) {
	c, err := NewCipher(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	orig := bytes.Repeat([]byte{0x5A}, 48)
	buf := append([]byte{}, orig...)
	if err := c.Encrypt(buf, buf, 7); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, orig) {
		t.Fatal("in-place encrypt left plaintext unchanged")
	}
	if err := c.Decrypt(buf, buf, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, orig) {
		t.Errorf("in-place roundtrip = %x, want %x", buf, orig)
	}
}

// benchEngines runs fn once per engine so `go test -bench XTS` shows the
// kernel next to the crypto/aes fallback.
func benchEngines(b *testing.B, fn func(b *testing.B, c *Cipher)) {
	for _, e := range engines() {
		b.Run(e.name, func(b *testing.B) {
			c, err := e.new(make([]byte, 64))
			if err != nil {
				b.Fatal(err)
			}
			fn(b, c)
		})
	}
}

func BenchmarkXTSEncrypt4K(b *testing.B) {
	benchEngines(b, func(b *testing.B, c *Cipher) {
		buf := make([]byte, 4096)
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = c.Encrypt(buf, buf, uint64(i))
		}
	})
}

func BenchmarkXTSDecrypt4K(b *testing.B) {
	benchEngines(b, func(b *testing.B, c *Cipher) {
		buf := make([]byte, 4096)
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = c.Decrypt(buf, buf, uint64(i))
		}
	})
}

// BenchmarkXTSEncryptSectors64K is dm-crypt's unit of work: 128 sectors
// of 512 bytes in one span call. Set against Encrypt4K it shows the
// per-sector fixed cost (tweak seed, one engine call per sector).
func BenchmarkXTSEncryptSectors64K(b *testing.B) {
	benchEngines(b, func(b *testing.B, c *Cipher) {
		buf := make([]byte, 64*1024)
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = c.EncryptSectors(buf, buf, uint64(i), 512)
		}
	})
}
