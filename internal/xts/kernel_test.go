package xts

import (
	"bytes"
	"crypto/aes"
	"math/rand"
	"testing"
)

// enginesAgree is the differential check behind the property test and the
// fuzz target: for one key, sector and input, the AES-NI kernel must
// produce exactly the crypto/aes engine's bytes and invert them, for any
// buffer alignment, in place or not. unit >= BlockSize that divides the
// input selects the span API with that sector size; anything else runs
// the input as one data unit, stealing included.
func enginesAgree(t *testing.T, key []byte, sector uint64, data []byte, unit, srcOff, dstOff int, inPlace bool) {
	t.Helper()
	if newKernel(key) == nil {
		t.Skip("no AES-NI kernel in this build or on this CPU")
	}
	kern, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := newGeneric(key)
	if err != nil {
		t.Fatal(err)
	}
	if unit < BlockSize || len(data)%unit != 0 {
		unit = len(data)
	}

	want := make([]byte, len(data))
	if err := gen.EncryptSectors(want, data, sector, unit); err != nil {
		t.Fatal(err)
	}

	// misaligned returns an n-byte slice starting off bytes into a fresh
	// allocation, so the kernel sees every load and store alignment.
	misaligned := func(off int) []byte { return make([]byte, off+len(data))[off:] }
	src := misaligned(srcOff)
	copy(src, data)
	dst := src
	if !inPlace {
		dst = misaligned(dstOff)
	}
	if err := kern.EncryptSectors(dst, src, sector, unit); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, want) {
		t.Fatalf("kernel ciphertext != generic (key %d bytes, sector %d, len %d, unit %d, src+%d dst+%d inPlace=%v)",
			len(key), sector, len(data), unit, srcOff, dstOff, inPlace)
	}

	back := dst
	if !inPlace {
		back = misaligned(srcOff)
	}
	if err := kern.DecryptSectors(back, dst, sector, unit); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("kernel decrypt did not invert encrypt (sector %d, len %d, unit %d)", sector, len(data), unit)
	}
	if err := gen.DecryptSectors(want, want, sector, unit); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, data) {
		t.Fatalf("generic decrypt did not invert encrypt (sector %d, len %d, unit %d)", sector, len(data), unit)
	}
}

// TestKernelMatchesGeneric drives enginesAgree over seeded random keys
// (both sizes), sectors, lengths 16…8192 with and without a partial final
// block, sector sizes, misalignments and aliasing.
func TestKernelMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(1619))
	for i := 0; i < 400; i++ {
		key := make([]byte, 32+32*rng.Intn(2))
		rng.Read(key)
		n := BlockSize + rng.Intn(8192-BlockSize+1)
		unit := 0
		switch rng.Intn(3) {
		case 0: // whole sectors, as dm-crypt issues them
			unit = 512
			n = unit * (1 + rng.Intn(16))
		case 1: // odd sector size: every sector ends in a stolen block
			unit = BlockSize + 1 + rng.Intn(100)
			n = unit * (1 + rng.Intn(40))
		}
		data := make([]byte, n)
		rng.Read(data)
		enginesAgree(t, key, rng.Uint64(), data, unit, rng.Intn(16), rng.Intn(16), rng.Intn(2) == 0)
	}
}

func FuzzXTSKernelMatchesGeneric(f *testing.F) {
	f.Add([]byte("seed key"), false, uint64(0), bytes.Repeat([]byte{0x44}, 32), uint16(0), uint8(0), uint8(0), false)
	f.Add([]byte{0xff}, true, uint64(0x9a78563412), []byte("seventeen bytes.."), uint16(0), uint8(1), uint8(7), true)
	f.Add([]byte{1, 2, 3}, true, uint64(1<<64-1), make([]byte, 1024), uint16(512), uint8(3), uint8(0), false)
	f.Add([]byte{9}, false, uint64(7), make([]byte, 170), uint16(17), uint8(15), uint8(15), true)
	f.Fuzz(func(t *testing.T, keyMaterial []byte, aes256 bool, sector uint64, data []byte, unit uint16, srcOff, dstOff uint8, inPlace bool) {
		if len(data) < BlockSize {
			return
		}
		if len(data) > 8192 {
			data = data[:8192]
		}
		key := make([]byte, 32)
		if aes256 {
			key = make([]byte, 64)
		}
		copy(key, keyMaterial)
		enginesAgree(t, key, sector, data, int(unit), int(srcOff%16), int(dstOff%16), inPlace)
	})
}

// TestKeyScheduleMatchesCryptoAES cross-checks the package's own key
// expansion: one block through the kernel with a zero tweak is plain
// AES, so it must equal crypto/aes under the same key, in both
// directions (the decryption schedule is derived separately) and for
// the tweak key.
func TestKeyScheduleMatchesCryptoAES(t *testing.T) {
	rng := rand.New(rand.NewSource(197))
	for _, keyLen := range []int{32, 64} {
		for i := 0; i < 50; i++ {
			key := make([]byte, keyLen)
			rng.Read(key)
			k := newKernel(key)
			if k == nil {
				t.Skip("no AES-NI kernel in this build or on this CPU")
			}
			data, err := aes.NewCipher(key[:keyLen/2])
			if err != nil {
				t.Fatal(err)
			}
			tweak, err := aes.NewCipher(key[keyLen/2:])
			if err != nil {
				t.Fatal(err)
			}
			var in, got, want [BlockSize]byte
			rng.Read(in[:])

			k.xex(got[:], in[:], zeroTweaks[:], 1, true)
			data.Encrypt(want[:], in[:])
			if got != want {
				t.Fatalf("AES-%d encrypt: kernel %x, crypto/aes %x", keyLen*4, got, want)
			}
			k.xex(got[:], in[:], zeroTweaks[:], 1, false)
			data.Decrypt(want[:], in[:])
			if got != want {
				t.Fatalf("AES-%d decrypt: kernel %x, crypto/aes %x", keyLen*4, got, want)
			}
			got = in
			k.seed(got[:], 1)
			tweak.Encrypt(want[:], in[:])
			if got != want {
				t.Fatalf("AES-%d tweak key: kernel %x, crypto/aes %x", keyLen*4, got, want)
			}
		}
	}
}
