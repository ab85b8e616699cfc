package dmcrypt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"

	"revelio/internal/blockdev"
)

// bigSectors is a large request size: 256 KiB.
const bigSectors = 512

const parVolSize = headerBytes + 4*bigSectors*SectorSize

// pairVol formats two byte-identical volumes — same deterministic
// entropy, so same master key and salts.
func pairVol(t *testing.T) (refRaw, raw *blockdev.Mem, ref, dev *Device) {
	t.Helper()
	mk := func() (*blockdev.Mem, *Device) {
		raw := blockdev.NewMem(parVolSize)
		dev, err := Format(raw, []byte("sealing-key"), Options{
			Iterations: 10,
			Rand:       rand.New(rand.NewSource(7)),
		})
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		return raw, dev
	}
	refRaw, ref = mk()
	raw, dev = mk()
	return refRaw, raw, ref, dev
}

// bySector issues the request [off, off+len(p)) one sector at a time:
// every piece stays inside one sector.
func bySector(p []byte, off int64, io func(p []byte, off int64) error) error {
	for len(p) > 0 {
		n := min(int64(len(p)), SectorSize-off%SectorSize)
		if err := io(p[:n], off); err != nil {
			return err
		}
		p, off = p[n:], off+n
	}
	return nil
}

// TestParallelMatchesSerial drives identical bytes through a device as
// one request and, on a twin volume, one sector at a time, and requires
// byte-identical ciphertext on disk and byte-identical plaintext on
// read-back either way — the on-disk format must not depend on the size
// or alignment of the request that wrote it. Both take the same span
// code, so every sector a write touched is also held to the per-sector
// XTS encryption (xts.Cipher.Encrypt under its sector number) of the
// plaintext it should now hold.
func TestParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		name string
		off  int64
		n    int
	}{
		{"sub-sector", 700, 100},
		{"single sector aligned", 2 * SectorSize, SectorSize},
		{"7 sectors", 0, 7 * SectorSize},
		{"8 sectors", 0, 8 * SectorSize},
		{"aligned span", 4 * SectorSize, 64 * SectorSize},
		{"unaligned head", 100, 32 * SectorSize},
		{"unaligned tail", 3 * SectorSize, 32*SectorSize + 213},
		{"unaligned both", 37, 16*SectorSize + 41},
		{"large aligned", SectorSize, bigSectors * SectorSize},
		{"large unaligned both", 37, 3*bigSectors*SectorSize + 41},
		{"whole device", 0, 4 * bigSectors * SectorSize},
	}
	refRaw, raw, ref, dev := pairVol(t)
	// want is the plaintext the data area should hold, starting from
	// what the fresh volume's ciphertext decrypts to sector by sector.
	want := make([]byte, dev.Size())
	if err := raw.ReadAt(want, headerBytes); err != nil {
		t.Fatal(err)
	}
	for s := int64(0); s < dev.Size()/SectorSize; s++ {
		sector := want[s*SectorSize : (s+1)*SectorSize]
		if err := dev.cipher.Decrypt(sector, sector, uint64(s)); err != nil {
			t.Fatal(err)
		}
	}
	enc := make([]byte, SectorSize)
	onDisk := make([]byte, SectorSize)
	rng := rand.New(rand.NewSource(99))
	for _, tc := range cases {
		data := make([]byte, tc.n)
		rng.Read(data)
		if err := bySector(data, tc.off, ref.WriteAt); err != nil {
			t.Fatalf("%s: per-sector WriteAt: %v", tc.name, err)
		}
		if err := dev.WriteAt(data, tc.off); err != nil {
			t.Fatalf("%s: WriteAt: %v", tc.name, err)
		}
		if !bytes.Equal(refRaw.Snapshot(), raw.Snapshot()) {
			t.Fatalf("%s: ciphertext differs from the per-sector reference", tc.name)
		}
		copy(want[tc.off:], data)
		for s := tc.off / SectorSize; s <= (tc.off+int64(tc.n)-1)/SectorSize; s++ {
			if err := dev.cipher.Encrypt(enc, want[s*SectorSize:(s+1)*SectorSize], uint64(s)); err != nil {
				t.Fatal(err)
			}
			if err := raw.ReadAt(onDisk, headerBytes+s*SectorSize); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk, enc) {
				t.Fatalf("%s: sector %d differs from its per-sector XTS encryption", tc.name, s)
			}
		}
		// Read what the one request wrote back both ways.
		whole := make([]byte, tc.n)
		pieces := make([]byte, tc.n)
		if err := dev.ReadAt(whole, tc.off); err != nil {
			t.Fatalf("%s: ReadAt: %v", tc.name, err)
		}
		if err := bySector(pieces, tc.off, dev.ReadAt); err != nil {
			t.Fatalf("%s: per-sector ReadAt: %v", tc.name, err)
		}
		if !bytes.Equal(whole, data) || !bytes.Equal(pieces, data) {
			t.Fatalf("%s: plaintext mismatch on read-back", tc.name)
		}
	}
}

// TestSerialFormattedOpensParallel is the on-disk stability check: a
// fixture volume written entirely one sector at a time must reopen and
// decrypt identically in a single whole-device request, and its
// ciphertext must match a pinned digest so format drift cannot slip in
// unnoticed.
func TestSerialFormattedOpensParallel(t *testing.T) {
	raw := blockdev.NewMem(testVolSize)
	dev, err := Format(raw, []byte("fixture-key"), Options{
		Iterations: 10,
		Rand:       rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, dev.Size())
	rand.New(rand.NewSource(2)).Read(plain)
	if err := bySector(plain, 0, dev.WriteAt); err != nil {
		t.Fatal(err)
	}

	// Pinned SHA-256 of the full raw volume (header + ciphertext). This
	// must never change: it is the LUKS-style on-disk format.
	const wantDigest = "fecc004b7c63cb16944f0586647f1b4b65d5c2e34fa023bfd0f2a8e03403b0cf"
	if got := sha256.Sum256(raw.Snapshot()); hex.EncodeToString(got[:]) != wantDigest {
		t.Errorf("on-disk digest = %x, want %s (format drift!)", got, wantDigest)
	}

	reopened, err := Open(raw, []byte("fixture-key"))
	if err != nil {
		t.Fatalf("reopening the fixture volume: %v", err)
	}
	got := make([]byte, reopened.Size())
	if err := reopened.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Error("whole-device read decrypted the sector-written volume incorrectly")
	}
}

// TestConcurrentDisjointIO exercises the documented concurrency
// contract under the race detector: concurrent readers plus concurrent
// writers to disjoint sector ranges.
func TestConcurrentDisjointIO(t *testing.T) {
	const regions = 8
	raw := blockdev.NewMem(headerBytes + regions*bigSectors*SectorSize)
	dev, err := Format(raw, []byte("pw"), Options{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteAt(make([]byte, dev.Size()), 0); err != nil {
		t.Fatal(err)
	}
	regionLen := dev.Size() / regions
	var wg sync.WaitGroup
	errs := make(chan error, 2*regions)
	for r := 0; r < regions; r++ {
		wg.Add(2)
		go func(r int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(r)}, int(regionLen))
			errs <- dev.WriteAt(data, int64(r)*regionLen)
		}(r)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, regionLen)
			errs <- dev.ReadAt(buf, int64(r)*regionLen)
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// After the dust settles every region holds its writer's bytes.
	for r := 0; r < regions; r++ {
		buf := make([]byte, regionLen)
		if err := dev.ReadAt(buf, int64(r)*regionLen); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{byte(r)}, int(regionLen))) {
			t.Errorf("region %d corrupted by concurrent disjoint writes", r)
		}
	}
}

func BenchmarkCryptRead64K(b *testing.B) {
	raw := blockdev.NewMem(headerBytes + 1<<20)
	dev, err := Format(raw, []byte("bench"), Options{Iterations: 10})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	if err := dev.WriteAt(make([]byte, dev.Size()), 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(64 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%(1<<20/(64*1024))) * 64 * 1024
		if err := dev.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
}
