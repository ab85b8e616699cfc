package dmcrypt

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"

	"revelio/internal/blockdev"
)

// FuzzHeaderUnmarshal feeds the header parser, and Open above it, bytes
// the host controls: the first 4 KiB of the persistent partition. Either
// outcome is fine — a classified error, or a header that re-marshals to a
// fixed point — but never a panic and never an unclassified failure.
func FuzzHeaderUnmarshal(f *testing.F) {
	raw, _ := formatVol(f, "fuzz")
	hdr := make([]byte, headerBytes)
	if err := raw.ReadAt(hdr, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(hdr)
	earlier, err := hex.DecodeString(earlierHeaderHex)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(earlier)
	f.Add(hdr[:100])
	f.Add(make([]byte, headerBytes))
	huge := bytes.Clone(hdr)
	binary.LittleEndian.PutUint32(huge[56:], 1<<31) // wrapped-key length
	f.Add(huge)
	short := bytes.Clone(hdr)
	binary.LittleEndian.PutUint32(short[56:], 3) // shorter than a GCM tag
	f.Add(short)

	f.Fuzz(func(t *testing.T, data []byte) {
		var h header
		if err := h.unmarshal(data); err != nil {
			if !errors.Is(err, ErrBadHeader) {
				t.Fatalf("unclassified failure: %v", err)
			}
			return
		}
		enc := h.marshal()
		var again header
		if err := again.unmarshal(enc); err != nil {
			t.Fatalf("re-marshalled header does not parse: %v", err)
		}
		if !bytes.Equal(again.marshal(), enc) {
			t.Fatal("header encoding is not stable across a round trip")
		}
		// Open runs the header's own PBKDF2 iteration count; keep it to
		// what a fuzz iteration can afford.
		if h.iterations > 64 {
			return
		}
		dev := blockdev.NewMem(headerBytes + 8*SectorSize)
		if err := dev.WriteAt(enc, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dev, []byte("fuzz")); err != nil && !errors.Is(err, ErrBadPassphrase) {
			t.Fatalf("Open on a parseable header: unclassified failure: %v", err)
		}
	})
}
