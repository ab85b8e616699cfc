package blockdev

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// cloneFamily pairs every Mem of one clone family with a flat copy of
// what it must contain: the model a copy-on-write device has to be
// indistinguishable from.
type cloneFamily struct {
	devs   []*Mem
	models [][]byte
}

func (f *cloneFamily) clone(i int) {
	f.devs = append(f.devs, f.devs[i].Clone())
	f.models = append(f.models, append([]byte(nil), f.models[i]...))
}

// span picks an extent that, more often than chance would, straddles a
// chunk boundary, covers whole chunks or touches the device's end.
func span(rng *rand.Rand, size int64) (off int64, n int) {
	switch rng.Intn(5) {
	case 0: // straddle a chunk boundary
		edge := int64(1+rng.Intn(int(size/cowChunk))) * cowChunk
		off = edge - int64(1+rng.Intn(600))
		n = int(edge-off) + 1 + rng.Intn(600)
	case 1: // exactly one or two whole chunks
		off = int64(rng.Intn(int(size/cowChunk))) * cowChunk
		n = cowChunk * (1 + rng.Intn(2))
	case 2: // run into the end of the device
		n = 1 + rng.Intn(2*cowChunk)
		off = size - int64(n)
	default:
		off = rng.Int63n(size)
		n = rng.Intn(3 * 4096)
	}
	if off < 0 {
		off = 0
	}
	if off+int64(n) > size {
		n = int(size - off)
	}
	return off, n
}

// mutate applies one random write-side operation to device i and to its
// model.
func (f *cloneFamily) mutate(t *testing.T, rng *rand.Rand, i int) {
	t.Helper()
	dev, model := f.devs[i], f.models[i]
	size := int64(len(model))
	switch rng.Intn(5) {
	case 0, 1:
		off, n := span(rng, size)
		p := make([]byte, n)
		rng.Read(p)
		if err := dev.WriteAt(p, off); err != nil {
			t.Fatalf("WriteAt(%d, %d): %v", off, n, err)
		}
		copy(model[off:], p)
	case 2:
		off, bit := rng.Int63n(size), uint(rng.Intn(8))
		if err := dev.FlipBit(off, bit); err != nil {
			t.Fatalf("FlipBit: %v", err)
		}
		model[off] ^= 1 << bit
	case 3:
		// A rejected write must leave nothing behind, private chunk or byte.
		if err := dev.WriteAt([]byte{1, 2, 3}, size-2); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("out-of-range write: err = %v", err)
		}
	case 4:
		if len(f.devs) < 7 {
			f.clone(i)
		}
	}
}

// check reads device i (dev, which must equal model) back two ways.
func check(t *testing.T, rng *rand.Rand, i int, dev *Mem, model []byte) {
	if got := dev.Snapshot(); !bytes.Equal(got, model) {
		t.Errorf("device %d: snapshot differs from model at byte %d", i, firstDiff(got, model))
		return
	}
	off, n := span(rng, int64(len(model)))
	p := make([]byte, n)
	if err := dev.ReadAt(p, off); err != nil || !bytes.Equal(p, model[off:off+int64(n)]) {
		t.Errorf("device %d: ReadAt(%d, %d) differs from model (err %v)", i, off, n, err)
	}
	if dev.Size() != int64(len(model)) {
		t.Errorf("device %d: size %d, want %d", i, dev.Size(), len(model))
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestCloneFamilyMatchesFlatCopies is the isolation property: over random
// Clone/WriteAt/FlipBit sequences — clones of written clones,
// writes straddling chunk and device ends — every device of a family reads
// exactly what a family of full copies would. While one device is written,
// all its relatives are read from other goroutines, so under -race a chunk
// written while still shared is a reported data race, not just a wrong byte.
func TestCloneFamilyMatchesFlatCopies(t *testing.T) {
	const size = 3*cowChunk + 1234
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		image := make([]byte, size)
		rng.Read(image)
		f := &cloneFamily{devs: []*Mem{NewMemFrom(image)}, models: [][]byte{image}}
		if seed%2 == 0 {
			f.mutate(t, rng, 0) // sometimes the root is written before its first clone
		}
		f.clone(0)

		for round := 0; round < 40; round++ {
			writer := rng.Intn(len(f.devs))
			relatives := len(f.devs) // devices cloned during the round are not read
			var wg sync.WaitGroup
			for i := 0; i < relatives; i++ {
				if i == writer {
					continue
				}
				wg.Add(1)
				go func(i int, dev *Mem, model []byte, rng *rand.Rand) {
					defer wg.Done()
					check(t, rng, i, dev, model)
				}(i, f.devs[i], f.models[i], rand.New(rand.NewSource(rng.Int63())))
			}
			for k := 0; k < 8; k++ {
				f.mutate(t, rng, writer)
			}
			wg.Wait()
			check(t, rng, writer, f.devs[writer], f.models[writer])
			if t.Failed() {
				t.Fatalf("seed %d round %d", seed, round)
			}
		}
		for i := range f.devs {
			check(t, rng, i, f.devs[i], f.models[i])
		}
	}
}

// TestCloneCopiesOnlyWhatItWrites pins the cost model: a clone starts with
// nothing private, a partial write privatises the chunks it touches, a
// whole-chunk write takes a chunk without reading the shared one, and the
// parent pays the same way for its own writes.
func TestCloneCopiesOnlyWhatItWrites(t *testing.T) {
	const size = 4*cowChunk + 100
	parent := NewMem(size)
	if got := parent.PrivateBytes(); got != size {
		t.Fatalf("never-cloned device: %d private bytes, want %d", got, size)
	}
	clone := parent.Clone()
	if p, c := parent.PrivateBytes(), clone.PrivateBytes(); p != 0 || c != 0 {
		t.Fatalf("after Clone: parent %d, clone %d private bytes, want 0 and 0", p, c)
	}
	if err := clone.WriteAt([]byte("x"), cowChunk-1); err != nil {
		t.Fatal(err)
	}
	if got := clone.PrivateBytes(); got != cowChunk {
		t.Errorf("one-byte write: %d private bytes, want one chunk", got)
	}
	if err := clone.WriteAt(make([]byte, 2), 2*cowChunk-1); err != nil { // straddles chunks 1 and 2
		t.Fatal(err)
	}
	if got := clone.PrivateBytes(); got != 3*cowChunk {
		t.Errorf("straddling write: %d private bytes, want three chunks", got)
	}
	if err := clone.WriteAt(make([]byte, 50), 4*cowChunk+50); err != nil { // the short last chunk
		t.Fatal(err)
	}
	if got := clone.PrivateBytes(); got != 3*cowChunk+100 {
		t.Errorf("last-chunk write: %d private bytes, want three chunks + 100", got)
	}
	if got := parent.PrivateBytes(); got != 0 {
		t.Errorf("clone's writes cost the parent %d private bytes", got)
	}
	if err := parent.WriteAt(bytes.Repeat([]byte{7}, cowChunk), 3*cowChunk); err != nil {
		t.Fatal(err)
	}
	if got := parent.PrivateBytes(); got != cowChunk {
		t.Errorf("parent's whole-chunk write: %d private bytes, want one chunk", got)
	}
	// Cloning a written clone shares its private chunks again.
	grandchild := clone.Clone()
	if c, g := clone.PrivateBytes(), grandchild.PrivateBytes(); c != 0 || g != 0 {
		t.Errorf("after second Clone: clone %d, grandchild %d private bytes, want 0 and 0", c, g)
	}
	got := make([]byte, 1)
	if err := grandchild.ReadAt(got, cowChunk-1); err != nil || got[0] != 'x' {
		t.Errorf("grandchild does not see the clone's earlier write: %q (err %v)", got, err)
	}
}

// BenchmarkMem64K compares 64 KiB reads and writes on a never-cloned
// device with the same on a clone that has already privatised every chunk
// — the steady state of a node's disk under the pad workload.
func BenchmarkMem64K(b *testing.B) {
	const size = 4 << 20
	flat := NewMem(size)
	cow := NewMem(size).Clone()
	for _, m := range []*Mem{flat, cow} { // touch every page; privatise every chunk
		if err := m.WriteAt(bytes.Repeat([]byte{1}, size), 0); err != nil {
			b.Fatal(err)
		}
	}
	buf := make([]byte, cowChunk)
	for _, dev := range []struct {
		name string
		m    *Mem
	}{{"flat", flat}, {"cow", cow}} {
		offset := func(i int) int64 { return int64(i%63)*cowChunk + 4608 } // dm-crypt's header skew
		b.Run(dev.name+"/read", func(b *testing.B) {
			b.SetBytes(cowChunk)
			for i := 0; i < b.N; i++ {
				if err := dev.m.ReadAt(buf, offset(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(dev.name+"/write", func(b *testing.B) {
			b.SetBytes(cowChunk)
			for i := 0; i < b.N; i++ {
				if err := dev.m.WriteAt(buf, offset(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = flat.Clone()
		}
	})
}
