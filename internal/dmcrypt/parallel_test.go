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

// parVolSize leaves room for requests several times the sharding
// threshold, so the worker pool really runs.
const parVolSize = headerBytes + 4*minParallelSectors*SectorSize

// pairVol formats two byte-identical volumes — same deterministic
// entropy, so same master key and salts — one opened with the serial
// engine and one with the given parallel tuning.
func pairVol(t *testing.T, conc int) (serialRaw, parRaw *blockdev.Mem, serial, par *Device) {
	t.Helper()
	mk := func(tuning Tuning) (*blockdev.Mem, *Device) {
		raw := blockdev.NewMem(parVolSize)
		dev, err := Format(raw, []byte("sealing-key"), Options{
			Iterations: 10,
			Rand:       rand.New(rand.NewSource(7)),
			Tuning:     tuning,
		})
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		return raw, dev
	}
	serialRaw, serial = mk(Tuning{Concurrency: 1})
	parRaw, par = mk(Tuning{Concurrency: conc})
	return serialRaw, parRaw, serial, par
}

// TestParallelMatchesSerial drives identical I/O through the serial and
// parallel engines and requires byte-identical ciphertext on disk and
// byte-identical plaintext on read-back — the on-disk format must not
// depend on the engine.
func TestParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		name string
		off  int64
		n    int
	}{
		{"sub-sector", 700, 100},
		{"single sector aligned", 2 * SectorSize, SectorSize},
		{"below batch threshold", 0, (minBatchSectors - 1) * SectorSize},
		{"at batch threshold", 0, minBatchSectors * SectorSize},
		{"aligned span", 4 * SectorSize, 64 * SectorSize},
		{"unaligned head", 100, 32 * SectorSize},
		{"unaligned tail", 3 * SectorSize, 32*SectorSize + 213},
		{"unaligned both", 37, 16*SectorSize + 41},
		{"below parallel threshold", 0, (minParallelSectors - 1) * SectorSize},
		{"at parallel threshold", SectorSize, minParallelSectors * SectorSize},
		{"sharded unaligned both", 37, 3*minParallelSectors*SectorSize + 41},
		{"whole device", 0, 4 * minParallelSectors * SectorSize},
	}
	for _, conc := range []int{2, 8} {
		serialRaw, parRaw, serial, par := pairVol(t, conc)
		rng := rand.New(rand.NewSource(99))
		for _, tc := range cases {
			data := make([]byte, tc.n)
			rng.Read(data)
			if err := serial.WriteAt(data, tc.off); err != nil {
				t.Fatalf("conc=%d %s: serial WriteAt: %v", conc, tc.name, err)
			}
			if err := par.WriteAt(data, tc.off); err != nil {
				t.Fatalf("conc=%d %s: parallel WriteAt: %v", conc, tc.name, err)
			}
			if !bytes.Equal(serialRaw.Snapshot(), parRaw.Snapshot()) {
				t.Fatalf("conc=%d %s: ciphertext diverged between engines", conc, tc.name)
			}
			// Cross-read: each engine decrypts what the other wrote.
			gotSerial := make([]byte, tc.n)
			gotPar := make([]byte, tc.n)
			if err := serial.ReadAt(gotSerial, tc.off); err != nil {
				t.Fatalf("conc=%d %s: serial ReadAt: %v", conc, tc.name, err)
			}
			if err := par.ReadAt(gotPar, tc.off); err != nil {
				t.Fatalf("conc=%d %s: parallel ReadAt: %v", conc, tc.name, err)
			}
			if !bytes.Equal(gotSerial, data) || !bytes.Equal(gotPar, data) {
				t.Fatalf("conc=%d %s: plaintext mismatch on read-back", conc, tc.name)
			}
		}
	}
}

// TestSerialFormattedOpensParallel is the on-disk stability check: a
// fixture volume written entirely by the serial engine must open and
// decrypt identically under the parallel engine, and its ciphertext must
// match a pinned digest so format drift cannot slip in unnoticed.
func TestSerialFormattedOpensParallel(t *testing.T) {
	raw := blockdev.NewMem(testVolSize)
	serial, err := Format(raw, []byte("fixture-key"), Options{
		Iterations: 10,
		Rand:       rand.New(rand.NewSource(1)),
		Tuning:     Tuning{Concurrency: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, serial.Size())
	rand.New(rand.NewSource(2)).Read(plain)
	if err := serial.WriteAt(plain, 0); err != nil {
		t.Fatal(err)
	}

	// Pinned SHA-256 of the full raw volume (header + ciphertext). This
	// must never change: it is the LUKS-style on-disk format.
	const wantDigest = "fecc004b7c63cb16944f0586647f1b4b65d5c2e34fa023bfd0f2a8e03403b0cf"
	if got := sha256.Sum256(raw.Snapshot()); hex.EncodeToString(got[:]) != wantDigest {
		t.Errorf("on-disk digest = %x, want %s (format drift!)", got, wantDigest)
	}

	par, err := OpenTuned(raw, []byte("fixture-key"), Tuning{Concurrency: 8})
	if err != nil {
		t.Fatalf("parallel open of serial-formatted volume: %v", err)
	}
	got := make([]byte, par.Size())
	if err := par.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Error("parallel engine decrypted serial-formatted volume incorrectly")
	}
}

// TestConcurrentDisjointIO exercises the documented concurrency
// contract under the race detector: concurrent readers plus concurrent
// writers to disjoint sector ranges.
func TestConcurrentDisjointIO(t *testing.T) {
	// Regions are one sharding threshold each, so every request below
	// also fans out over the worker pool.
	const regions = 8
	raw := blockdev.NewMem(headerBytes + regions*minParallelSectors*SectorSize)
	dev, err := Format(raw, []byte("pw"), Options{Iterations: 10, Tuning: Tuning{Concurrency: 4}})
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
	for _, mode := range []struct {
		name string
		conc int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			raw := blockdev.NewMem(headerBytes + 1<<20)
			dev, err := Format(raw, []byte("bench"), Options{
				Iterations: 10, Tuning: Tuning{Concurrency: mode.conc},
			})
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
		})
	}
}
