package xts

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestSectorsMatchPerSectorCalls verifies the span API against the
// scalar one: EncryptSectors over N sectors must equal N independent
// Encrypt calls with consecutive tweaks, and DecryptSectors must invert
// it.
func TestSectorsMatchPerSectorCalls(t *testing.T) {
	key := make([]byte, 64)
	rand.New(rand.NewSource(5)).Read(key)
	const sectorSize = 512
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			c, err := e.new(key)
			if err != nil {
				t.Fatal(err)
			}
			// 33 and 70 cross the 32-sector tweak-seed batch.
			for _, nSectors := range []int{1, 2, 7, 33, 70} {
				for _, firstSector := range []uint64{0, 1, 1 << 40, 1<<64 - 3} {
					src := make([]byte, nSectors*sectorSize)
					rand.New(rand.NewSource(int64(nSectors))).Read(src)

					span := make([]byte, len(src))
					if err := c.EncryptSectors(span, src, firstSector, sectorSize); err != nil {
						t.Fatal(err)
					}
					scalar := make([]byte, len(src))
					for s := 0; s < nSectors; s++ {
						if err := c.Encrypt(scalar[s*sectorSize:(s+1)*sectorSize],
							src[s*sectorSize:(s+1)*sectorSize], firstSector+uint64(s)); err != nil {
							t.Fatal(err)
						}
					}
					if !bytes.Equal(span, scalar) {
						t.Errorf("n=%d first=%d: span encryption != per-sector encryption", nSectors, firstSector)
					}

					back := make([]byte, len(src))
					if err := c.DecryptSectors(back, span, firstSector, sectorSize); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(back, src) {
						t.Errorf("n=%d first=%d: decrypt did not invert encrypt", nSectors, firstSector)
					}
				}
			}
		})
	}
}

func TestSectorsInPlace(t *testing.T) {
	key := make([]byte, 32)
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	const sectorSize = 512
	src := make([]byte, 4*sectorSize)
	rand.New(rand.NewSource(9)).Read(src)
	want := make([]byte, len(src))
	if err := c.EncryptSectors(want, src, 3, sectorSize); err != nil {
		t.Fatal(err)
	}
	inPlace := append([]byte(nil), src...)
	if err := c.EncryptSectors(inPlace, inPlace, 3, sectorSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inPlace, want) {
		t.Error("in-place span encryption diverged from out-of-place")
	}
}

func TestSectorsValidation(t *testing.T) {
	c, err := NewCipher(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	if err := c.EncryptSectors(buf, buf[:512], 0, 512); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := c.EncryptSectors(buf[:700], buf[:700], 0, 512); err == nil {
		t.Error("ragged span accepted")
	}
	if err := c.EncryptSectors(buf, buf, 0, 8); err == nil {
		t.Error("sector size below cipher block accepted")
	}
}
