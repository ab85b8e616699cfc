package dmverity

import (
	"testing"

	"revelio/internal/blockdev"
	"revelio/internal/race"
)

// newVerifiedDevice formats a small tree and opens it with a serial
// engine and a cache sized to hold the whole device and its tree.
func newVerifiedDevice(t testing.TB, blocks int64) *Device {
	t.Helper()
	bs := int64(DefaultBlockSize)
	data := blockdev.NewMem(blocks * bs)
	for i := int64(0); i < blocks; i++ {
		blk := make([]byte, bs)
		for j := range blk {
			blk[j] = byte(i + int64(j))
		}
		if err := data.WriteAt(blk, i*bs); err != nil {
			t.Fatal(err)
		}
	}
	hashDev, meta, err := Format(data, Params{BlockSize: DefaultBlockSize, Salt: []byte("alloc")})
	if err != nil {
		t.Fatal(err)
	}
	dev := openWorkers(t, data, hashDev, meta, Config{CacheBlocks: 512}, 1)
	return dev
}

// TestVerifiedReadZeroAllocs is the allocs/op guard for the two read
// hot paths. Verifying blocks with their tree path cached (a data miss
// under a warm tree: the capacity-1 devices below cache their one leaf
// hash block and, data never displacing hash blocks, nothing else) uses
// pooled scratch and pooled SHA-256 states. Serving cached blocks is a
// plain copy. Both run on the caller's goroutine whatever the worker
// count: a fan-out allocates its goroutines and closures, so zero
// allocations on the 4-worker multi-block reads also proves there was
// none.
func TestVerifiedReadZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	// 256 blocks: two leaf hash blocks under the pinned top block.
	warm := newVerifiedDevice(t, 256)
	bs := int64(warm.meta.BlockSize)
	treeOnly := openWorkers(t, warm.data, warm.hash, warm.meta, Config{CacheBlocks: 1}, 1)
	treeWide := openWorkers(t, warm.data, warm.hash, warm.meta, Config{CacheBlocks: 1}, 4)
	stats := blockdev.NewStats(warm.data)
	wide := openWorkers(t, stats, warm.hash, warm.meta, Config{}, 4)
	span := make([]byte, 16*bs) // 64 KiB
	for _, dev := range []*Device{warm, treeOnly, treeWide, wide} {
		if err := dev.ReadAt(span, 0); err != nil {
			t.Fatal(err)
		}
	}
	if cached(treeOnly, dataKey(0)) || cached(treeWide, dataKey(0)) {
		t.Fatal("capacity-1 device cached a data block; its read would not exercise the verify path")
	}
	coldOps, _, _, _ := stats.Counters()

	buf := span[:bs]
	for _, tc := range []struct {
		name string
		dev  *Device
		p    []byte
	}{
		{"cached single-block", warm, buf},
		{"verified single-block, warm tree", treeOnly, buf},
		{"verified 64 KiB multi-block, warm tree, 4 workers", treeWide, span},
		{"cached 64 KiB multi-block, 4 workers", wide, span},
	} {
		if allocs := testing.AllocsPerRun(100, func() {
			if err := tc.dev.ReadAt(tc.p, 0); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s ReadAt: %.1f allocs/op, want 0", tc.name, allocs)
		}
	}
	if ops, _, _, _ := stats.Counters(); ops != coldOps {
		t.Errorf("cached multi-block reads went to the data device %d times", ops-coldOps)
	}
}

// BenchmarkVerifiedBlockRead reports allocs/op for the cached read path
// (run with -benchmem to track the guard's numbers over time).
func BenchmarkVerifiedBlockRead(b *testing.B) {
	dev := newVerifiedDevice(b, 16)
	bs := int64(dev.meta.BlockSize)
	buf := make([]byte, bs)
	for i := int64(0); i < 16; i++ {
		if err := dev.ReadAt(buf, i*bs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(bs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dev.ReadAt(buf, (int64(i)%16)*bs); err != nil {
			b.Fatal(err)
		}
	}
}
