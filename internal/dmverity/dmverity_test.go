package dmverity

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"revelio/internal/blockdev"
)

// newFilledDevice creates a data device of n blocks filled with
// deterministic pseudorandom data.
func newFilledDevice(t testing.TB, blocks int, blockSize int, seed int64) *blockdev.Mem {
	t.Helper()
	data := make([]byte, blocks*blockSize)
	rand.New(rand.NewSource(seed)).Read(data)
	return blockdev.NewMemFrom(data)
}

func format(t testing.TB, data blockdev.Device, params Params) (*blockdev.Mem, *Metadata) {
	t.Helper()
	hashDev, meta, err := Format(data, params)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return hashDev, meta
}

func TestFormatAndOpenRoundTrip(t *testing.T) {
	params := Params{BlockSize: DefaultBlockSize, Salt: []byte("revelio-salt")}
	data := newFilledDevice(t, 300, DefaultBlockSize, 1)
	hashDev, meta := format(t, data, params)

	dev, err := Open(data, hashDev, meta, meta.RootHash)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if dev.Size() != data.Size() {
		t.Errorf("Size = %d, want %d", dev.Size(), data.Size())
	}
	got := make([]byte, data.Size())
	if err := dev.ReadAt(got, 0); err != nil {
		t.Fatalf("full read: %v", err)
	}
	want := data.Snapshot()
	if !bytes.Equal(got, want) {
		t.Error("verity read differs from underlying data")
	}
}

func TestOpenWrongRootHash(t *testing.T) {
	params := Params{BlockSize: DefaultBlockSize}
	data := newFilledDevice(t, 8, DefaultBlockSize, 2)
	hashDev, meta := format(t, data, params)

	bad := meta.RootHash
	bad[0] ^= 1
	if _, err := Open(data, hashDev, meta, bad); !errors.Is(err, ErrRootHashMismatch) {
		t.Errorf("Open with wrong root: err = %v, want ErrRootHashMismatch", err)
	}
}

// TestSingleBitFlipDetected is the §6.1.3 property: a single flipped bit
// anywhere in the data device fails the read of the affected block.
func TestSingleBitFlipDetected(t *testing.T) {
	params := Params{BlockSize: DefaultBlockSize, Salt: []byte("s")}
	const blocks = 64
	data := newFilledDevice(t, blocks, DefaultBlockSize, 3)
	hashDev, meta := format(t, data, params)

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 16; trial++ {
		byteOff := rng.Int63n(data.Size())
		bit := uint(rng.Intn(8))
		if err := data.FlipBit(byteOff, bit); err != nil {
			t.Fatal(err)
		}
		dev, err := Open(data, hashDev, meta, meta.RootHash)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		buf := make([]byte, DefaultBlockSize)
		affected := byteOff / DefaultBlockSize
		err = dev.ReadAt(buf, affected*DefaultBlockSize)
		var mismatch *MismatchError
		if !errors.As(err, &mismatch) {
			t.Fatalf("flip at byte %d bit %d: read err = %v, want MismatchError", byteOff, bit, err)
		}
		if mismatch.Level != 0 || mismatch.Block != affected {
			t.Errorf("mismatch at level %d block %d, want level 0 block %d",
				mismatch.Level, mismatch.Block, affected)
		}
		// Other blocks must remain readable.
		other := (affected + 1) % blocks
		if err := dev.ReadAt(buf, other*DefaultBlockSize); err != nil {
			t.Errorf("unaffected block %d unreadable: %v", other, err)
		}
		// Restore for the next trial.
		if err := data.FlipBit(byteOff, bit); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHashTreeTamperDetected flips bits in the hash device itself: the
// chain to the root must break.
func TestHashTreeTamperDetected(t *testing.T) {
	params := Params{BlockSize: DefaultBlockSize}
	data := newFilledDevice(t, 200, DefaultBlockSize, 4)
	hashDev, meta := format(t, data, params)

	// Corrupt a level-0 hash entry.
	if err := hashDev.FlipBit(meta.LevelStarts[0]+10, 3); err != nil {
		t.Fatal(err)
	}
	dev, err := Open(data, hashDev, meta, meta.RootHash)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	err = dev.VerifyAll()
	var mismatch *MismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("VerifyAll after hash tamper: err = %v, want MismatchError", err)
	}
}

func TestTopLevelTamperFailsOpen(t *testing.T) {
	params := Params{BlockSize: DefaultBlockSize}
	data := newFilledDevice(t, 10, DefaultBlockSize, 5)
	hashDev, meta := format(t, data, params)

	top := meta.LevelStarts[len(meta.LevelStarts)-1]
	if err := hashDev.FlipBit(top, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(data, hashDev, meta, meta.RootHash); !errors.Is(err, ErrRootHashMismatch) {
		t.Errorf("Open with tampered top block: err = %v, want ErrRootHashMismatch", err)
	}
}

func TestVerityDeviceIsReadOnly(t *testing.T) {
	params := Params{BlockSize: DefaultBlockSize}
	data := newFilledDevice(t, 4, DefaultBlockSize, 6)
	hashDev, meta := format(t, data, params)
	dev, err := Open(data, hashDev, meta, meta.RootHash)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteAt([]byte{1}, 0); !errors.Is(err, blockdev.ErrReadOnly) {
		t.Errorf("WriteAt: err = %v, want ErrReadOnly", err)
	}
}

func TestUnalignedReads(t *testing.T) {
	params := Params{BlockSize: DefaultBlockSize, Salt: []byte("x")}
	data := newFilledDevice(t, 16, DefaultBlockSize, 7)
	hashDev, meta := format(t, data, params)
	dev, err := Open(data, hashDev, meta, meta.RootHash)
	if err != nil {
		t.Fatal(err)
	}
	want := data.Snapshot()
	tests := []struct {
		off int64
		n   int
	}{
		{1, 1},
		{DefaultBlockSize - 1, 2},          // straddles a block boundary
		{DefaultBlockSize + 100, 3 * 4096}, // multi-block unaligned
		{data.Size() - 17, 17},             // tail
		{0, int(data.Size())},              // everything
		{5 * DefaultBlockSize, DefaultBlockSize},
	}
	for _, tt := range tests {
		got := make([]byte, tt.n)
		if err := dev.ReadAt(got, tt.off); err != nil {
			t.Errorf("ReadAt(off=%d,n=%d): %v", tt.off, tt.n, err)
			continue
		}
		if !bytes.Equal(got, want[tt.off:tt.off+int64(tt.n)]) {
			t.Errorf("ReadAt(off=%d,n=%d): wrong data", tt.off, tt.n)
		}
	}
	if err := dev.ReadAt(make([]byte, 1), dev.Size()); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Errorf("read past end: err = %v, want ErrOutOfRange", err)
	}
}

// TestReadRangeChecks: the MaxInt64 rows are the ones an adding check
// (off+len > size) lets through, the sum wrapping negative.
func TestReadRangeChecks(t *testing.T) {
	dev := newVerifiedDevice(t, 4)
	size := dev.Size()
	for _, tc := range []struct {
		name string
		off  int64
		n    int
		ok   bool
	}{
		{"last byte", size - 1, 1, true},
		{"empty at end", size, 0, true},
		{"one past end", size, 1, false},
		{"straddles end", size - 1, 2, false},
		{"negative offset", -1, 1, false},
		{"empty past end", size + 1, 0, false},
		{"offset MaxInt64-1", math.MaxInt64 - 1, 2, false},
		{"offset MaxInt64", math.MaxInt64, 1, false},
		{"offset MaxInt64, two blocks", math.MaxInt64, 2 * DefaultBlockSize, false},
	} {
		err := dev.ReadAt(make([]byte, tc.n), tc.off)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.ok && !errors.Is(err, blockdev.ErrOutOfRange):
			t.Errorf("%s: err = %v, want ErrOutOfRange", tc.name, err)
		}
	}
}

func TestVerifyAllClean(t *testing.T) {
	for _, blocks := range []int{1, 2, 127, 128, 129, 1000} {
		data := newFilledDevice(t, blocks, DefaultBlockSize, int64(blocks))
		hashDev, meta := format(t, data, Params{BlockSize: DefaultBlockSize})
		dev, err := Open(data, hashDev, meta, meta.RootHash)
		if err != nil {
			t.Fatalf("blocks=%d: Open: %v", blocks, err)
		}
		if err := dev.VerifyAll(); err != nil {
			t.Errorf("blocks=%d: VerifyAll: %v", blocks, err)
		}
	}
}

func TestFormatValidation(t *testing.T) {
	data := newFilledDevice(t, 4, DefaultBlockSize, 8)
	if _, _, err := Format(data, Params{BlockSize: 1000}); err == nil {
		t.Error("non-power-of-two block size accepted")
	}
	if _, _, err := Format(data, Params{BlockSize: 0}); err == nil {
		t.Error("zero block size accepted")
	}
	odd := blockdev.NewMem(DefaultBlockSize + 1)
	if _, _, err := Format(odd, Params{BlockSize: DefaultBlockSize}); err == nil {
		t.Error("non-multiple device size accepted")
	}
	empty := blockdev.NewMem(0)
	if _, _, err := Format(empty, Params{BlockSize: DefaultBlockSize}); err == nil {
		t.Error("empty device accepted")
	}
}

func TestMetadataMarshalRoundTrip(t *testing.T) {
	data := newFilledDevice(t, 300, DefaultBlockSize, 9)
	_, meta := format(t, data, Params{BlockSize: DefaultBlockSize, Salt: []byte("abc")})
	enc, err := meta.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	var back Metadata
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if back.BlockSize != meta.BlockSize ||
		!bytes.Equal(back.Salt, meta.Salt) ||
		back.DataBlocks != meta.DataBlocks ||
		back.RootHash != meta.RootHash ||
		len(back.LevelStarts) != len(meta.LevelStarts) {
		t.Errorf("roundtrip mismatch: %+v vs %+v", back, meta)
	}
	for i := range meta.LevelStarts {
		if back.LevelStarts[i] != meta.LevelStarts[i] || back.LevelBlocks[i] != meta.LevelBlocks[i] {
			t.Errorf("level %d mismatch", i)
		}
	}
}

func TestMetadataUnmarshalGarbage(t *testing.T) {
	inputs := [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0xFF}, 64),
	}
	for _, in := range inputs {
		var m Metadata
		if err := m.UnmarshalBinary(in); !errors.Is(err, ErrBadSuperblock) {
			t.Errorf("UnmarshalBinary(%d bytes): err = %v, want ErrBadSuperblock", len(in), err)
		}
	}
}

// Property: formatting is deterministic — same data and salt produce the
// same root hash; different salt produces a different one.
func TestFormatDeterminism(t *testing.T) {
	f := func(seed int64, saltByte byte) bool {
		blocks := 1 + int(uint(seed)%32)
		d1 := newFilledDevice(t, blocks, DefaultBlockSize, seed)
		d2 := newFilledDevice(t, blocks, DefaultBlockSize, seed)
		salt := []byte{saltByte}
		_, m1, err := Format(d1, Params{BlockSize: DefaultBlockSize, Salt: salt})
		if err != nil {
			return false
		}
		_, m2, err := Format(d2, Params{BlockSize: DefaultBlockSize, Salt: salt})
		if err != nil {
			return false
		}
		_, m3, err := Format(d1, Params{BlockSize: DefaultBlockSize, Salt: []byte{saltByte ^ 0xFF}})
		if err != nil {
			return false
		}
		return m1.RootHash == m2.RootHash && m1.RootHash != m3.RootHash
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: any data modification changes the root hash recomputed by
// Format (collision-free in practice).
func TestRootHashBindsData(t *testing.T) {
	f := func(seed int64, off uint16, bit uint8) bool {
		data := newFilledDevice(t, 8, DefaultBlockSize, seed)
		_, m1, err := Format(data, Params{BlockSize: DefaultBlockSize})
		if err != nil {
			return false
		}
		if err := data.FlipBit(int64(off)%data.Size(), uint(bit%8)); err != nil {
			return false
		}
		_, m2, err := Format(data, Params{BlockSize: DefaultBlockSize})
		if err != nil {
			return false
		}
		return m1.RootHash != m2.RootHash
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSmallBlockSizes(t *testing.T) {
	// Exercise deeper trees with a small block size (64 bytes = 2 digests
	// per hash block).
	const bs = 64
	data := newFilledDevice(t, 1, DefaultBlockSize, 10) // 4096/64 = 64 data blocks
	hashDev, meta, err := Format(data, Params{BlockSize: bs})
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	if len(meta.LevelStarts) < 4 {
		t.Errorf("expected a deep tree, got %d levels", len(meta.LevelStarts))
	}
	dev, err := Open(data, hashDev, meta, meta.RootHash)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.VerifyAll(); err != nil {
		t.Errorf("VerifyAll: %v", err)
	}
}

func BenchmarkVerityRead4K(b *testing.B) {
	data := newFilledDevice(b, 1024, DefaultBlockSize, 11)
	hashDev, meta, err := Format(data, Params{BlockSize: DefaultBlockSize})
	if err != nil {
		b.Fatal(err)
	}
	dev, err := Open(data, hashDev, meta, meta.RootHash)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, DefaultBlockSize)
	b.SetBytes(DefaultBlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dev.ReadAt(buf, int64(i%1024)*DefaultBlockSize); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMetadataUnmarshalNeverPanics: arbitrary superblock bytes (the
// metadata partition is attacker-writable) must never panic the parser.
func TestMetadataUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		var m Metadata
		_ = m.UnmarshalBinary(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
