package dmverity

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"revelio/internal/blockdev"
)

// FuzzMetadataUnmarshal feeds the superblock parser, and OpenWithConfig
// above it, bytes the host controls: the integrity-metadata partition.
// Parsing ends in ErrBadSuperblock or in metadata whose encoding is a
// fixed point. Opening that metadata over an honest 16-block image under
// the image's trusted root hash never panics, fails only with a
// classified error, and — whatever geometry it claims — a read that
// succeeds returns the image's true bytes.
func FuzzMetadataUnmarshal(f *testing.F) {
	raw := fixtureData(16)
	data := blockdev.NewMemFrom(raw)
	hashDev, meta, err := Format(data, Params{BlockSize: DefaultBlockSize, Salt: []byte("revelio")})
	if err != nil {
		f.Fatal(err)
	}
	seed := func(mutate func(m *Metadata)) {
		m := *meta
		m.LevelStarts = append([]int64(nil), meta.LevelStarts...)
		m.LevelBlocks = append([]int64(nil), meta.LevelBlocks...)
		mutate(&m)
		enc, err := m.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	seed(func(*Metadata) {})
	seed(func(m *Metadata) { m.DataBlocks = -1 })
	seed(func(m *Metadata) { m.DataBlocks = math.MaxInt64/DefaultBlockSize + 2 }) // size wraps to 4096
	seed(func(m *Metadata) { m.DataBlocks = 8 })                                  // a prefix of the image
	seed(func(m *Metadata) { m.LevelStarts[0] = hashDev.Size() })
	seed(func(m *Metadata) { m.LevelStarts[0] = -DefaultBlockSize })
	seed(func(m *Metadata) { m.LevelStarts[0] = math.MaxInt64 - 100 })
	seed(func(m *Metadata) { m.LevelBlocks[0] = math.MaxInt64 })
	seed(func(m *Metadata) { m.BlockSize = 2048 })
	f.Add([]byte(nil))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, in []byte) {
		var m Metadata
		if err := m.UnmarshalBinary(in); err != nil {
			if !errors.Is(err, ErrBadSuperblock) {
				t.Fatalf("unclassified failure: %v", err)
			}
			return
		}
		enc, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		var again Metadata
		if err := again.UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-marshalled superblock does not parse: %v", err)
		}
		if stable, err := again.MarshalBinary(); err != nil || !bytes.Equal(stable, enc) {
			t.Fatalf("superblock encoding is not stable across a round trip (%v)", err)
		}

		dev, err := OpenWithConfig(data, hashDev, &m, meta.RootHash, Config{})
		if err != nil {
			if !errors.Is(err, ErrBadSuperblock) && !errors.Is(err, ErrRootHashMismatch) {
				t.Fatalf("open: unclassified failure: %v", err)
			}
			return
		}
		if dev.Size() <= 0 || dev.Size() > data.Size() {
			t.Fatalf("opened device claims %d bytes over a %d-byte image", dev.Size(), data.Size())
		}
		got := make([]byte, dev.Size())
		var mismatch *MismatchError
		switch err := dev.ReadAt(got, 0); {
		case err == nil:
			if !bytes.Equal(got, raw[:len(got)]) {
				t.Fatal("a verified read returned bytes that are not the image's")
			}
		case !errors.As(err, &mismatch):
			t.Fatalf("read: unclassified failure: %v", err)
		}
		if err := dev.VerifyAll(); err != nil && !errors.As(err, &mismatch) {
			t.Fatalf("VerifyAll: unclassified failure: %v", err)
		}
	})
}
