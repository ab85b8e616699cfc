package dmverity

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"revelio/internal/blockdev"
)

// openWorkers opens a device that shards VerifyAll over the given worker
// count instead of GOMAXPROCS.
func openWorkers(t testing.TB, data, hashDev blockdev.Device, meta *Metadata, cfg Config, workers int) *Device {
	t.Helper()
	dev, err := OpenWithConfig(data, hashDev, meta, meta.RootHash, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev.workers = workers
	return dev
}

// fixtureData returns deterministic data covering nBlocks 4 KiB blocks.
func fixtureData(nBlocks int) []byte {
	data := make([]byte, nBlocks*DefaultBlockSize)
	rand.New(rand.NewSource(11)).Read(data)
	return data
}

// TestFormatParallelMatchesSerial requires the parallel tree builder to
// be bit-identical to the serial one: same root hash, same level layout,
// same bytes on the hash device.
func TestFormatParallelMatchesSerial(t *testing.T) {
	data := blockdev.NewMemFrom(fixtureData(33)) // odd count: partial top blocks
	salt := []byte("engine-salt")
	serialHash, serialMeta, err := formatWorkers(data, Params{BlockSize: DefaultBlockSize, Salt: salt}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, conc := range []int{2, 8} {
		parHash, parMeta, err := formatWorkers(data, Params{BlockSize: DefaultBlockSize, Salt: salt}, conc)
		if err != nil {
			t.Fatalf("conc=%d: %v", conc, err)
		}
		if parMeta.RootHash != serialMeta.RootHash {
			t.Errorf("conc=%d: root hash diverged: %x vs %x", conc, parMeta.RootHash, serialMeta.RootHash)
		}
		if !bytes.Equal(parHash.Snapshot(), serialHash.Snapshot()) {
			t.Errorf("conc=%d: hash device bytes diverged", conc)
		}
	}
}

// TestSerialFormattedRootHashPinned pins the root hash of a fixture
// image built by the serial path and requires the parallel builder and
// the parallel reader to reproduce and accept it — the acceptance
// criterion that the on-disk format is engine-independent.
func TestSerialFormattedRootHashPinned(t *testing.T) {
	data := blockdev.NewMemFrom(fixtureData(16))
	salt := []byte("revelio")
	hashDev, meta, err := formatWorkers(data, Params{BlockSize: DefaultBlockSize, Salt: salt}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Pinned dm-verity root hash of the fixture; any change is format
	// drift.
	const wantRoot = "b5338c2c6824663200e4cbc4cfec9174411dabdd36483193c90477665871d063"
	if got := hex.EncodeToString(meta.RootHash[:]); got != wantRoot {
		t.Errorf("fixture root hash = %s, want %s (format drift!)", got, wantRoot)
	}

	par := openWorkers(t, data, hashDev, meta, Config{}, 8)
	if err := par.VerifyAll(); err != nil {
		t.Errorf("parallel VerifyAll on serial-formatted image: %v", err)
	}
}

// TestParallelReadMatchesSerial reads the same windows through devices
// opened with 1 and 8 workers and requires identical plaintext.
func TestParallelReadMatchesSerial(t *testing.T) {
	raw := fixtureData(24)
	data := blockdev.NewMemFrom(raw)
	hashDev, meta, err := Format(data, Params{BlockSize: DefaultBlockSize})
	if err != nil {
		t.Fatal(err)
	}
	serial := openWorkers(t, data, hashDev, meta, Config{}, 1)
	par := openWorkers(t, data, hashDev, meta, Config{}, 8)
	cases := []struct {
		name string
		off  int64
		n    int
	}{
		{"one block", 0, DefaultBlockSize},
		{"sub-block", 1000, 800},
		{"3 blocks", 0, 3 * DefaultBlockSize},
		{"aligned span", 4 * DefaultBlockSize, 12 * DefaultBlockSize},
		{"unaligned both", 4*DefaultBlockSize + 17, 9*DefaultBlockSize + 201},
		{"whole device", 0, 24 * DefaultBlockSize},
	}
	for _, tc := range cases {
		a := make([]byte, tc.n)
		b := make([]byte, tc.n)
		if err := serial.ReadAt(a, tc.off); err != nil {
			t.Fatalf("%s: serial: %v", tc.name, err)
		}
		if err := par.ReadAt(b, tc.off); err != nil {
			t.Fatalf("%s: parallel: %v", tc.name, err)
		}
		if !bytes.Equal(a, b) || !bytes.Equal(a, raw[tc.off:tc.off+int64(tc.n)]) {
			t.Errorf("%s: plaintext mismatch between engines", tc.name)
		}
	}
}

// TestParallelCorruptionFailsClosed proves the security property under
// the parallel engine: a single flipped bit anywhere in the data fails
// any read spanning it, and VerifyAll fails, exactly as serially.
func TestParallelCorruptionFailsClosed(t *testing.T) {
	table := []struct {
		name    string
		corrupt func(data, hash *blockdev.Mem) error
	}{
		{"data block bit", func(data, _ *blockdev.Mem) error {
			return data.FlipBit(13*DefaultBlockSize+509, 3)
		}},
		{"first data byte", func(data, _ *blockdev.Mem) error {
			return data.FlipBit(0, 0)
		}},
		{"leaf hash block bit", func(_, hash *blockdev.Mem) error {
			return hash.FlipBit(100, 5)
		}},
	}
	for _, tc := range table {
		t.Run(tc.name, func(t *testing.T) {
			// 600 blocks give a multi-level tree, so leaf hash blocks
			// are distinct from the root-pinned top block.
			data := blockdev.NewMemFrom(fixtureData(600))
			hashDev, meta, err := Format(data, Params{BlockSize: DefaultBlockSize})
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.corrupt(data, hashDev); err != nil {
				t.Fatal(err)
			}
			// The top block is untouched, so open must succeed.
			dev := openWorkers(t, data, hashDev, meta, Config{}, 8)
			var mismatch *MismatchError
			buf := make([]byte, dev.Size())
			if err := dev.ReadAt(buf, 0); !errors.As(err, &mismatch) {
				t.Errorf("parallel full read: err = %v, want MismatchError", err)
			}
			if err := dev.VerifyAll(); !errors.As(err, &mismatch) {
				t.Errorf("parallel VerifyAll: err = %v, want MismatchError", err)
			}
		})
	}
}

// TestCacheEvictionStaysFailClosed bounds the cache at two blocks, reads
// data block 0 (caching it and its leaf hash block), forces both out,
// then tampers with one of them on disk: the next read must re-verify
// and catch it. The cache may serve only bytes it proved; eviction must
// never downgrade to trust-on-reread.
func TestCacheEvictionStaysFailClosed(t *testing.T) {
	table := []struct {
		name   string
		tamper func(data, hash *blockdev.Mem, meta *Metadata) error
	}{
		// Level 0 starts at offset 0 of the hash device, with the leaf
		// hash block covering data block 0.
		{"hash block", func(_, hash *blockdev.Mem, meta *Metadata) error {
			return hash.FlipBit(meta.LevelStarts[0]+3, 1)
		}},
		{"data block", func(data, _ *blockdev.Mem, _ *Metadata) error {
			return data.FlipBit(77, 6)
		}},
	}
	for _, tc := range table {
		t.Run(tc.name, func(t *testing.T) {
			// 600 data blocks -> several leaf hash blocks at 128
			// digests/block with BlockSize 4096.
			data := blockdev.NewMemFrom(fixtureData(600))
			hashDev, meta, err := Format(data, Params{BlockSize: DefaultBlockSize})
			if err != nil {
				t.Fatal(err)
			}
			dev := openWorkers(t, data, hashDev, meta, Config{CacheBlocks: 2}, 1)
			buf := make([]byte, DefaultBlockSize)
			if err := dev.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			if !cached(dev, dataKey(0)) || !cached(dev, hashKey(meta.LevelStarts[0])) {
				t.Fatal("first read did not cache data block 0 and its hash block")
			}
			// Far-away blocks under other leaf hash blocks evict both.
			for _, i := range []int64{200, 350, 599} {
				if err := dev.ReadAt(buf, i*DefaultBlockSize); err != nil {
					t.Fatal(err)
				}
			}
			if got := dev.cache.len(); got > 2 {
				t.Errorf("cache holds %d blocks, capacity 2", got)
			}
			if cached(dev, dataKey(0)) || cached(dev, hashKey(meta.LevelStarts[0])) {
				t.Fatal("block 0 or its hash block survived eviction; the test would prove nothing")
			}
			if err := tc.tamper(data, hashDev, meta); err != nil {
				t.Fatal(err)
			}
			var mismatch *MismatchError
			if err := dev.ReadAt(buf, 0); !errors.As(err, &mismatch) {
				t.Errorf("read after eviction+tamper: err = %v, want MismatchError", err)
			}
		})
	}
}

// TestCacheSpeedsRepeatReads sanity-checks the cache's accounting: a
// warm re-read touches the hash device strictly less than the cold read.
func TestCacheSpeedsRepeatReads(t *testing.T) {
	data := blockdev.NewMemFrom(fixtureData(64))
	hashDev, meta, err := Format(data, Params{BlockSize: DefaultBlockSize})
	if err != nil {
		t.Fatal(err)
	}
	stats := blockdev.NewStats(hashDev)
	dev := openWorkers(t, data, stats, meta, Config{}, 1)
	buf := make([]byte, dev.Size())
	if err := dev.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	coldOps, _, _, _ := stats.Counters()
	if err := dev.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	warmOps, _, _, _ := stats.Counters()
	if warmOps != coldOps {
		t.Errorf("warm re-read hit the hash device %d more times; want 0 (cache)", warmOps-coldOps)
	}
}

// TestConcurrentVerifiedReaders hammers one shared device from many
// goroutines under -race: the verified-block cache and worker pool must
// be safe for concurrent readers — with a capacity far below the working
// set, where hits, inserts and evictions of the same blocks interleave,
// and with the default, where after the first pass every read is a hit.
func TestConcurrentVerifiedReaders(t *testing.T) {
	raw := fixtureData(64)
	data := blockdev.NewMemFrom(raw)
	hashDev, meta, err := Format(data, Params{BlockSize: DefaultBlockSize})
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{8, DefaultCacheBlocks} {
		dev := openWorkers(t, data, hashDev, meta, Config{CacheBlocks: capacity}, 4)
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				buf := make([]byte, 8*DefaultBlockSize)
				for i := 0; i < 10; i++ {
					off := rng.Int63n(dev.Size() - int64(len(buf)))
					if err := dev.ReadAt(buf, off); err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(buf, raw[off:off+int64(len(buf))]) {
						errs <- errors.New("concurrent read returned wrong bytes")
						return
					}
				}
				errs <- nil
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("capacity %d: %v", capacity, err)
			}
		}
		if got := dev.cache.len(); got > capacity {
			t.Errorf("cache holds %d blocks, capacity %d", got, capacity)
		}
	}
}
