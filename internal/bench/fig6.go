package bench

import (
	"fmt"
	"math/rand"
	"time"

	"revelio/internal/blockdev"
	"revelio/internal/dmverity"
)

// Fig6Config tunes the dm-verity read sweep.
type Fig6Config struct {
	// Sizes are the file sizes to read; nil selects DefaultFig6Sizes.
	Sizes []int64
	// BlockSize is the verity data/hash block size; 0 selects
	// dmverity.DefaultBlockSize.
	BlockSize int
}

// Fig6Point is one file size in the dm-verity read sweep.
type Fig6Point struct {
	SizeBytes int64
	Plain     time.Duration
	Verity    time.Duration // first read on a fresh device: cold cache
	// VerityHot is a re-read with the tree cached and every data block
	// fetched and hashed again: what the hash-block cache alone buys,
	// and the cost of a re-read whose data was evicted.
	VerityHot time.Duration
	// VerityCached is a re-read of the range on the device that just
	// read it: data blocks that fit the cache are copied out of guest
	// memory without touching the disk or SHA-256.
	VerityCached time.Duration
	Slowdown     float64 // verity/plain (cold, the paper's metric)
	// ColdHashReads counts the hash-device reads of the cold row's read:
	// the tree blocks it verified the data against. The plain row reads
	// the data device only, so it reads none.
	ColdHashReads int64
}

// Fig6Result reproduces Fig 6: read latency of files on the integrity-
// protected rootfs versus a plain device (the paper reads the BN rootfs,
// largest file 94.8 MB, and sees a 9.35x average slowdown), extended
// with two warm rows per size.
type Fig6Result struct {
	Points []Fig6Point
	// AvgSlowdown is the mean cold verity/plain ratio across the sweep.
	AvgSlowdown float64
	// BlockSize records the verity block size (ablation knob).
	BlockSize int
}

// DefaultFig6Sizes approximates the BN rootfs file-size distribution.
var DefaultFig6Sizes = []int64{4 * KiB, 64 * KiB, 1 * MiB, 8 * MiB, 32 * MiB, 96 * MiB}

// RunFig6 measures verity reads in three configurations per size. One is
// cold (the paper's first-read cost), on a device opened for that one
// read so no verification state carries over. Two are warm re-reads:
// with only the tree cached, so every data block is fetched and hashed
// again, and on the device that just read the range, so whatever fits
// its cache is served from guest memory.
func RunFig6(cfg Fig6Config) (*Fig6Result, error) {
	sizes := cfg.Sizes
	if len(sizes) == 0 {
		sizes = DefaultFig6Sizes
	}
	blockSize := cfg.BlockSize
	if blockSize == 0 {
		blockSize = dmverity.DefaultBlockSize
	}
	maxSize := sizes[0]
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	// Round the device up to a block multiple.
	devSize := (maxSize + int64(blockSize) - 1) / int64(blockSize) * int64(blockSize)

	data := make([]byte, devSize)
	rand.New(rand.NewSource(6)).Read(data)
	dataDev := blockdev.NewMemFrom(data)
	hashDev, meta, err := dmverity.Format(dataDev, dmverity.Params{BlockSize: blockSize})
	if err != nil {
		return nil, fmt.Errorf("bench: fig6 format: %w", err)
	}

	hashStats := blockdev.NewStats(hashDev)
	res := &Fig6Result{BlockSize: blockSize}
	var sum float64
	for _, size := range sizes {
		buf := make([]byte, size)
		// Touch the destination once so the plain baseline doesn't pay
		// the fresh allocation's page faults (the verity rows reuse the
		// warmed buffer; the comparison must too).
		if err := dataDev.ReadAt(buf, 0); err != nil {
			return nil, err
		}

		start := time.Now()
		if err := dataDev.ReadAt(buf, 0); err != nil {
			return nil, err
		}
		plain := time.Since(start)

		// read opens a fresh device and times its first read of the
		// range, or with reread set its second, counting the hash-device
		// reads of the timed one.
		read := func(cacheBlocks int, reread bool) (time.Duration, int64, *dmverity.Device, error) {
			dev, err := dmverity.OpenWithConfig(dataDev, hashStats, meta, meta.RootHash,
				dmverity.Config{CacheBlocks: cacheBlocks})
			if err != nil {
				return 0, 0, nil, err
			}
			if reread {
				if err := dev.ReadAt(buf, 0); err != nil {
					return 0, 0, nil, err
				}
			}
			before, _, _, _ := hashStats.Counters()
			start := time.Now()
			if err := dev.ReadAt(buf, 0); err != nil {
				return 0, 0, nil, err
			}
			elapsed := time.Since(start)
			after, _, _, _ := hashStats.Counters()
			return elapsed, after - before, dev, nil
		}

		// The cold and data-warm rows run the production cache
		// (dmverity.DefaultCacheBlocks): a size that does not fit
		// re-verifies its data on the data-warm row too, and the row
		// shows it.
		verity, hashReads, coldDev, err := read(dmverity.DefaultCacheBlocks, false)
		if err != nil {
			return nil, err
		}
		// Tree-warm: data blocks never displace hash blocks, so a cache
		// the size of the tree over the range holds that and no data.
		verityHot, _, _, err := read(treeBlocksOver(meta, size), true)
		if err != nil {
			return nil, err
		}
		// Data-warm: the same device again, the range just verified.
		start = time.Now()
		if err := coldDev.ReadAt(buf, 0); err != nil {
			return nil, err
		}
		verityCached := time.Since(start)

		slowdown := safeRatio(verity, plain)
		sum += slowdown
		res.Points = append(res.Points, Fig6Point{
			SizeBytes: size, Plain: plain, Verity: verity,
			VerityHot: verityHot, VerityCached: verityCached, Slowdown: slowdown,
			ColdHashReads: hashReads,
		})
	}
	res.AvgSlowdown = sum / float64(len(res.Points))
	return res, nil
}

// treeBlocksOver counts the cacheable hash blocks — every level but the
// pinned top one — on the tree paths of the first size bytes. A tree of
// one level has none; the result is then 1 (0 would select the default
// capacity) and the one slot holds a single data block.
func treeBlocksOver(meta *dmverity.Metadata, size int64) int {
	bs := int64(meta.BlockSize)
	perBlock := bs / dmverity.DigestSize
	n, total := (size+bs-1)/bs, int64(0)
	for l := 0; l < len(meta.LevelBlocks)-1; l++ {
		n = (n + perBlock - 1) / perBlock
		total += n
	}
	return int(max(total, 1))
}

// Render prints the series with one row per size and configuration:
// "cold" is the first read, "tree-warm" re-reads with the tree cached
// and the data re-verified, "data-warm" re-reads with the data cached as
// well.
func (r *Fig6Result) Render() string {
	rows := make([][]string, 0, 4*len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{humanSize(p.SizeBytes), "plain", fmtMS(p.Plain), "-"})
		for _, row := range []struct {
			name string
			d    time.Duration
		}{{"cold", p.Verity}, {"tree-warm", p.VerityHot}, {"data-warm", p.VerityCached}} {
			rows = append(rows, []string{humanSize(p.SizeBytes), row.name, fmtMS(row.d),
				fmt.Sprintf("%.2fx", safeRatio(row.d, p.Plain))})
		}
	}
	return fmt.Sprintf("Fig 6: dm-verity read latency (block size %d)\n", r.BlockSize) +
		table([]string{"File size", "Read", "Latency(ms)", "Slowdown"}, rows) +
		fmt.Sprintf("average slowdown (cold): %.2fx\n", r.AvgSlowdown)
}
