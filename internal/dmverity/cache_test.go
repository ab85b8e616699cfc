package dmverity

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"revelio/internal/blockdev"
)

// cached reports whether the device's cache holds key, without touching
// the LRU order.
func cached(d *Device, key int64) bool {
	d.cache.mu.Lock()
	defer d.cache.mu.Unlock()
	_, ok := d.cache.idx[key]
	return ok
}

// TestCachedReadsNeverReturnUnverifiedBytes is the security contract of
// the verified-block cache as a property over random histories. Against
// a device with a tiny cache it interleaves reads of random ranges, bit
// flips in data blocks and in leaf hash blocks, repairs of those flips,
// and far-away reads that force eviction, and holds every read to the
// model:
//
//   - a read either fails with *MismatchError or returns exactly the
//     bytes the device was formatted with;
//   - a read that has to fetch a tampered block — a flipped data block
//     that is not cached, or an uncached data block whose leaf hash block
//     is flipped and not cached — fails.
//
// What is cached is sampled just before each read: a block absent then
// can only enter the cache during the read by being verified, a block
// present may be evicted and fetched again, which the first clause covers.
func TestCachedReadsNeverReturnUnverifiedBytes(t *testing.T) {
	const (
		blocks    = 300 // three leaf hash blocks under the pinned top block
		sequences = 1000
		steps     = 24
		bs        = DefaultBlockSize
	)
	raw := fixtureData(blocks)
	data := blockdev.NewMemFrom(raw)
	hashDev, meta, err := Format(data, Params{BlockSize: bs, Salt: []byte("prop")})
	if err != nil {
		t.Fatal(err)
	}
	tree := hashDev.Snapshot()
	perBlock := int64(bs / DigestSize)
	leafBytes := meta.LevelBlocks[0] * bs
	blk := make([]byte, bs)
	const maxRead = 40 // blocks
	readBuf := make([]byte, maxRead*bs)

	type flip struct {
		dev *blockdev.Mem
		off int64
		bit uint
	}
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		dev := openWorkers(t, data, hashDev, meta, Config{CacheBlocks: 1 + rng.Intn(12)}, 1+2*rng.Intn(2))
		var flips []flip
		toggle := func(f flip) {
			if err := f.dev.FlipBit(f.off, f.bit); err != nil {
				t.Fatal(err)
			}
		}
		// tampered reports whether block b of m differs from what was
		// formatted (two flips of one bit cancel).
		tampered := func(m *blockdev.Mem, orig []byte, b int64) bool {
			if err := m.ReadAt(blk, b*bs); err != nil {
				t.Fatal(err)
			}
			return !bytes.Equal(blk, orig[b*bs:(b+1)*bs])
		}
		read := func(first, n int64, slack int) {
			off := first*bs + int64(slack)
			length := n*bs - int64(slack) - int64(rng.Intn(bs))
			if length < 1 {
				length = 1
			}
			if off+length > dev.Size() {
				length = dev.Size() - off
			}
			mustFail := false
			for b := off / bs; b <= (off+length-1)/bs; b++ {
				if cached(dev, dataKey(b)) {
					continue
				}
				leaf := b / perBlock
				leafOff := meta.LevelStarts[0] + leaf*bs
				if tampered(data, raw, b) ||
					(tampered(hashDev, tree, leafOff/bs) && !cached(dev, hashKey(leafOff))) {
					mustFail = true
				}
			}
			buf := readBuf[:length]
			err := dev.ReadAt(buf, off)
			var mismatch *MismatchError
			switch {
			case err == nil && mustFail:
				t.Fatalf("seq %d: read [%d,+%d) fetched a tampered block and succeeded", seq, off, length)
			case err == nil && !bytes.Equal(buf, raw[off:off+length]):
				t.Fatalf("seq %d: read [%d,+%d) returned bytes that were never formatted", seq, off, length)
			case err != nil && !errors.As(err, &mismatch):
				t.Fatalf("seq %d: read [%d,+%d): %v, want *MismatchError", seq, off, length, err)
			}
		}
		last := int64(0)
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // read a random range
				// Mostly short reads (the race detector pays per byte
				// moved); one in eight spans more than a read batch.
				n := 1 + rng.Int63n(8)
				if rng.Intn(8) == 0 {
					n = maxRead - rng.Int63n(10)
				}
				last = rng.Int63n(blocks - n + 1)
				read(last, n, rng.Intn(bs))
			case op < 6: // flip a bit in a data block, often one just read
				b := rng.Int63n(blocks)
				if rng.Intn(2) == 0 {
					b = last
				}
				f := flip{data, b*bs + rng.Int63n(bs), uint(rng.Intn(8))}
				toggle(f)
				flips = append(flips, f)
			case op < 7: // flip a bit in a leaf hash block
				f := flip{hashDev, meta.LevelStarts[0] + rng.Int63n(leafBytes), uint(rng.Intn(8))}
				toggle(f)
				flips = append(flips, f)
			case op < 8: // repair one flip
				if len(flips) > 0 {
					i := rng.Intn(len(flips))
					toggle(flips[i])
					flips = append(flips[:i], flips[i+1:]...)
				}
			default: // read at the far end to push the last range out
				far := (last + blocks/2) % (blocks - 13)
				read(far, 13, 0)
			}
		}
		for _, f := range flips {
			toggle(f)
		}
	}
}

// TestFailedReadCachesNothing: a read that hits a mismatch must not leave
// the offending block — or anything verified alongside it in the same
// batch — in the cache, where a later read would trust it.
func TestFailedReadCachesNothing(t *testing.T) {
	raw := fixtureData(64)
	data := blockdev.NewMemFrom(raw)
	hashDev, meta, err := Format(data, Params{BlockSize: DefaultBlockSize})
	if err != nil {
		t.Fatal(err)
	}
	stats := blockdev.NewStats(data)
	dev := openWorkers(t, stats, hashDev, meta, Config{}, 1)
	const k = 10
	if err := data.FlipBit(k*DefaultBlockSize+5, 2); err != nil {
		t.Fatal(err)
	}
	span := make([]byte, 5*DefaultBlockSize)
	var mismatch *MismatchError
	if err := dev.ReadAt(span, (k-2)*DefaultBlockSize); !errors.As(err, &mismatch) || mismatch.Block != k {
		t.Fatalf("read spanning tampered block %d: err = %v, want MismatchError there", k, err)
	}
	if err := data.FlipBit(k*DefaultBlockSize+5, 2); err != nil { // restore
		t.Fatal(err)
	}
	for b := int64(k - 2); b <= k+2; b++ {
		if cached(dev, dataKey(b)) {
			t.Errorf("failed read left data block %d in the cache", b)
		}
	}
	before, _, _, _ := stats.Counters()
	buf := make([]byte, DefaultBlockSize)
	if err := dev.ReadAt(buf, k*DefaultBlockSize); err != nil {
		t.Fatalf("read of restored block: %v", err)
	}
	if after, _, _, _ := stats.Counters(); after == before {
		t.Errorf("read of block %d after a failed read did not go back to the data device", k)
	}
	if !bytes.Equal(buf, raw[k*DefaultBlockSize:(k+1)*DefaultBlockSize]) {
		t.Error("restored block read back wrong")
	}
}

// TestVerifyAllIgnoresTheCache pins both halves of the threat model: a
// block tampered on disk after it was cached keeps being served from
// guest memory (the verified copy), and VerifyAll — the boot-time
// "dm-verity verify" service — re-hashes the disk regardless and fails.
func TestVerifyAllIgnoresTheCache(t *testing.T) {
	raw := fixtureData(64)
	data := blockdev.NewMemFrom(raw)
	hashDev, meta, err := Format(data, Params{BlockSize: DefaultBlockSize})
	if err != nil {
		t.Fatal(err)
	}
	dev := openWorkers(t, data, hashDev, meta, Config{}, 4)
	buf := make([]byte, 8*DefaultBlockSize)
	if err := dev.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := data.FlipBit(3*DefaultBlockSize+9, 4); err != nil {
		t.Fatal(err)
	}
	if err := dev.ReadAt(buf, 0); err != nil {
		t.Errorf("cached read after on-disk tamper: %v", err)
	} else if !bytes.Equal(buf, raw[:len(buf)]) {
		t.Error("cached read returned the tampered bytes")
	}
	var mismatch *MismatchError
	if err := dev.VerifyAll(); !errors.As(err, &mismatch) || mismatch.Block != 3 {
		t.Errorf("VerifyAll over a tampered cached block: err = %v, want MismatchError at block 3", err)
	}
}

// TestVerifyAllFillsFreeSlotsOnly: the boot-time scan leaves the blocks
// it verified in free cache space, so the reads that follow do not fetch
// or hash them again, but it never evicts what readers put there.
func TestVerifyAllFillsFreeSlotsOnly(t *testing.T) {
	raw := fixtureData(200)
	data := blockdev.NewMemFrom(raw)
	hashDev, meta, err := Format(data, Params{BlockSize: DefaultBlockSize})
	if err != nil {
		t.Fatal(err)
	}
	stats := blockdev.NewStats(data)
	roomy := openWorkers(t, stats, hashDev, meta, Config{}, 4)
	if err := roomy.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	scanOps, _, _, _ := stats.Counters()
	buf := make([]byte, roomy.Size())
	if err := roomy.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if ops, _, _, _ := stats.Counters(); ops != scanOps {
		t.Errorf("read after VerifyAll went to the data device %d times, want 0", ops-scanOps)
	}
	if !bytes.Equal(buf, raw) {
		t.Error("read after VerifyAll returned wrong bytes")
	}
	if err := roomy.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	if ops, _, _, _ := stats.Counters(); ops == scanOps {
		t.Error("a second VerifyAll was answered from the cache")
	}

	// hot's six blocks and their leaf hash block fill the cache: the
	// scan may keep nothing, not even the other leaf hash block.
	const capacity = 7
	tight := openWorkers(t, data, hashDev, meta, Config{CacheBlocks: capacity}, 1)
	hot := []int64{150, 151, 152, 153, 154, 155}
	if err := tight.ReadAt(buf[:len(hot)*DefaultBlockSize], hot[0]*DefaultBlockSize); err != nil {
		t.Fatal(err)
	}
	if err := tight.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	for _, b := range hot {
		if !cached(tight, dataKey(b)) {
			t.Errorf("VerifyAll evicted data block %d", b)
		}
	}
	if !cached(tight, hashKey(meta.LevelStarts[0]+DefaultBlockSize)) {
		t.Error("VerifyAll evicted the leaf hash block over the cached data")
	}
	if got := tight.cache.len(); got != capacity {
		t.Errorf("cache holds %d blocks after VerifyAll, want the same %d", got, capacity)
	}
}
