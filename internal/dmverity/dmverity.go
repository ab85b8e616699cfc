// Package dmverity reimplements the Linux dm-verity target: transparent,
// block-level integrity protection of a read-only device using a Merkle
// tree of salted SHA-256 digests.
//
// Revelio uses dm-verity for the guest's root filesystem: the tree is
// built at image-build time (internal/imagebuild), the root hash travels
// on the measured kernel command line, the tree itself lives on a
// designated metadata partition, and the guest's init verifies and mounts
// the device at boot (internal/vm). Any single-bit change to the data
// device makes the next read that fetches the affected block fail with a
// *MismatchError, which is the property the paper's §6.1.2–§6.1.3
// security arguments rest on.
//
// What is trusted is guest memory, not the disk: a block is hashed when
// it crosses from the device into the guest and, once it matched, is
// served from a bounded cache of verified blocks (blockCache) until it
// is evicted — as on Linux, where the page cache sits above dm-verity.
// Every byte a read returns was therefore verified against the measured
// root hash when it entered guest memory; a disk tampered after a block
// was cached is caught when that block is next fetched (after eviction,
// by VerifyAll, or at the next boot), not by a read the cache answers.
package dmverity

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"runtime"
	"sync"

	"revelio/internal/blockdev"
)

const (
	// DefaultBlockSize is the 4 KiB data/hash block size the paper
	// configures ("sha256 with a data and hash block size of 4kB").
	DefaultBlockSize = 4096

	// DigestSize is the size of a SHA-256 digest.
	DigestSize = sha256.Size

	superMagic   = 0x52564d56 // "RVMV"
	superVersion = 1
)

var (
	// ErrRootHashMismatch reports that the top of the hash tree does not
	// match the trusted root hash (e.g. the one from the kernel cmdline).
	ErrRootHashMismatch = errors.New("dmverity: root hash mismatch")
	// ErrBadSuperblock reports unparseable verity metadata.
	ErrBadSuperblock = errors.New("dmverity: bad superblock")
)

// MismatchError reports a data or hash block whose digest disagrees with
// the tree, i.e. on-disk corruption or tampering.
type MismatchError struct {
	Level int   // 0 = data blocks, increasing toward the root
	Block int64 // block index within the level
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("dmverity: digest mismatch at level %d block %d", e.Level, e.Block)
}

// Params configures tree construction.
type Params struct {
	// BlockSize is the data and hash block size in bytes; must be a
	// multiple of DigestSize and a power of two.
	BlockSize int
	// Salt is prepended to every block before hashing (dm-verity v1
	// semantics). May be empty.
	Salt []byte
}

// Config tunes an opened device. It never affects what is accepted or
// rejected, only how fast: any root hash that opens under one config
// opens under all of them.
type Config struct {
	// CacheBlocks bounds the cache of verified blocks, data and hash
	// blocks together; 0 selects DefaultCacheBlocks. A read copies the
	// data blocks it finds there and verifies only the others, and a
	// verification whose tree path is cached skips the walk up the
	// tree. Nothing enters the cache before its digest matched and
	// evicted blocks are fully re-verified on next use, so the cache
	// never weakens fail-closed behaviour; data blocks never displace
	// hash blocks, so a capacity no larger than the tree caches the
	// tree alone.
	CacheBlocks int
}

// Metadata describes a built tree: everything the guest needs, besides the
// trusted root hash, to open the device. It is stored on the integrity-
// metadata partition and is *untrusted* — all of it is re-checked against
// the root hash on open.
type Metadata struct {
	BlockSize  int
	Salt       []byte
	DataBlocks int64
	// LevelStarts[l] is the byte offset in the hash device of level l.
	// Level 0 is the widest (digests of data blocks); the last level is a
	// single block whose digest is the root hash.
	LevelStarts []int64
	// LevelBlocks[l] is the number of hash blocks in level l.
	LevelBlocks []int64
	// RootHash is the digest of the single top-level hash block.
	RootHash [DigestSize]byte
}

// validate checks the geometry the (untrusted) metadata claims against
// the two devices, so that every offset the device later computes from it
// lies inside them: a positive block count the data device can hold, and
// levels that each hold exactly the digests of the one below, end in a
// single block and fit the hash device. The comparisons divide instead of
// multiplying, so no claimed count can overflow its way past them.
func (m *Metadata) validate(dataSize, hashSize int64) error {
	if len(m.LevelStarts) == 0 || len(m.LevelStarts) != len(m.LevelBlocks) {
		return fmt.Errorf("%w: inconsistent levels", ErrBadSuperblock)
	}
	if p := (Params{BlockSize: m.BlockSize}); p.validate() != nil {
		return fmt.Errorf("%w: block size %d", ErrBadSuperblock, m.BlockSize)
	}
	bs := int64(m.BlockSize)
	if m.DataBlocks <= 0 || m.DataBlocks > dataSize/bs {
		return fmt.Errorf("%w: %d data blocks on a data device of %d bytes", ErrBadSuperblock, m.DataBlocks, dataSize)
	}
	perBlock := bs / DigestSize
	below := m.DataBlocks
	for l, start := range m.LevelStarts {
		blocks := m.LevelBlocks[l]
		if blocks != (below-1)/perBlock+1 {
			return fmt.Errorf("%w: level %d has %d blocks for %d digests", ErrBadSuperblock, l, blocks, below)
		}
		if start < 0 || start > hashSize || blocks > (hashSize-start)/bs {
			return fmt.Errorf("%w: level %d outside the hash device", ErrBadSuperblock, l)
		}
		below = blocks
	}
	if below != 1 {
		return fmt.Errorf("%w: top level has %d blocks", ErrBadSuperblock, below)
	}
	return nil
}

func (p Params) validate() error {
	if p.BlockSize <= 0 || p.BlockSize%DigestSize != 0 || p.BlockSize&(p.BlockSize-1) != 0 {
		return fmt.Errorf("dmverity: invalid block size %d", p.BlockSize)
	}
	return nil
}

// hasher pairs a reusable SHA-256 state with a sum scratch buffer. The
// scratch lives in the pooled object because a stack-local array passed
// to the interface Sum call would escape, costing one heap allocation
// per digested block.
type hasher struct {
	h   hash.Hash
	sum [DigestSize]byte
}

// hasherPool recycles SHA-256 states so the per-block digest of the
// verify hot path never heap-allocates.
var hasherPool = sync.Pool{New: func() any { return &hasher{h: sha256.New()} }}

func saltedDigest(salt, data []byte) [DigestSize]byte {
	hs := hasherPool.Get().(*hasher)
	hs.h.Reset()
	hs.h.Write(salt)
	hs.h.Write(data)
	hs.h.Sum(hs.sum[:0])
	out := hs.sum
	hasherPool.Put(hs)
	return out
}

// Format builds the Merkle tree for data and returns the hash device
// holding it plus the resulting metadata. The data device length must be a
// multiple of the block size.
func Format(data blockdev.Device, params Params) (*blockdev.Mem, *Metadata, error) {
	return formatWorkers(data, params, runtime.GOMAXPROCS(0))
}

// formatWorkers is Format hashing over the given number of workers; the
// tree — and therefore the root hash — is identical at any count.
func formatWorkers(data blockdev.Device, params Params, workers int) (*blockdev.Mem, *Metadata, error) {
	if err := params.validate(); err != nil {
		return nil, nil, err
	}
	bs := int64(params.BlockSize)
	if data.Size() == 0 || data.Size()%bs != 0 {
		return nil, nil, fmt.Errorf("dmverity: data size %d not a positive multiple of block size %d",
			data.Size(), params.BlockSize)
	}
	dataBlocks := data.Size() / bs
	perBlock := int64(params.BlockSize / DigestSize)

	// Compute level digests bottom-up in memory, then lay the levels out
	// contiguously on a fresh hash device. Each digest depends only on
	// its own block, so every level is split into shards hashed at once;
	// shards write disjoint slots of the level slice and the result is
	// bit-identical at any worker count. The bottom level — by far the
	// widest — batches its data reads instead of one round-trip per
	// block.
	levels := make([][][DigestSize]byte, 0, 8)
	cur := make([][DigestSize]byte, dataBlocks)
	err := shards(workers, dataBlocks, func(lo, hi int64) error {
		batch := int64(formatBatchBlocks)
		if hi-lo < batch {
			batch = hi - lo
		}
		buf := make([]byte, batch*bs)
		for b := lo; b < hi; b += batch {
			n := batch
			if hi-b < n {
				n = hi - b
			}
			seg := buf[:n*bs]
			if err := data.ReadAt(seg, b*bs); err != nil {
				return fmt.Errorf("dmverity: read data block %d: %w", b, err)
			}
			for j := int64(0); j < n; j++ {
				cur[b+j] = saltedDigest(params.Salt, seg[j*bs:(j+1)*bs])
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	for {
		numBlocks := (int64(len(cur)) + perBlock - 1) / perBlock
		levels = append(levels, cur)
		if numBlocks <= 1 && int64(len(cur)) <= perBlock {
			break
		}
		next := make([][DigestSize]byte, numBlocks)
		prev := cur
		err := shards(workers, numBlocks, func(lo, hi int64) error {
			block := make([]byte, params.BlockSize)
			for b := lo; b < hi; b++ {
				clear(block)
				for j := int64(0); j < perBlock; j++ {
					idx := b*perBlock + j
					if idx >= int64(len(prev)) {
						break
					}
					copy(block[j*DigestSize:], prev[idx][:])
				}
				next[b] = saltedDigest(params.Salt, block)
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		cur = next
	}

	meta := &Metadata{
		BlockSize:   params.BlockSize,
		Salt:        append([]byte(nil), params.Salt...),
		DataBlocks:  dataBlocks,
		LevelStarts: make([]int64, len(levels)),
		LevelBlocks: make([]int64, len(levels)),
	}

	// Serialize levels to the hash device, packing digests into blocks.
	var total int64
	for l, lv := range levels {
		nb := (int64(len(lv)) + perBlock - 1) / perBlock
		meta.LevelStarts[l] = total
		meta.LevelBlocks[l] = nb
		total += nb * bs
	}
	hashDev := blockdev.NewMem(total)
	for l, lv := range levels {
		levelBytes := make([]byte, meta.LevelBlocks[l]*bs)
		for idx := range lv {
			copy(levelBytes[idx*DigestSize:], lv[idx][:])
		}
		if err := hashDev.WriteAt(levelBytes, meta.LevelStarts[l]); err != nil {
			return nil, nil, fmt.Errorf("dmverity: write hash level %d: %w", l, err)
		}
	}

	// Root hash: digest of the single block in the top level.
	top := make([]byte, params.BlockSize)
	lastLevel := len(levels) - 1
	if err := hashDev.ReadAt(top, meta.LevelStarts[lastLevel]); err != nil {
		return nil, nil, fmt.Errorf("dmverity: read top block: %w", err)
	}
	meta.RootHash = saltedDigest(params.Salt, top)
	return hashDev, meta, nil
}

// Device is an opened verity target: a read-only view of the data device
// that returns only bytes verified against the tree. It implements
// blockdev.Device and is safe for concurrent readers.
//
// Verified blocks — tree blocks whose digests chained to the root, and
// data blocks whose digests matched the tree — are kept in one bounded
// cache (see Config.CacheBlocks), the way the guest's page cache sits
// above dm-verity on Linux. A read copies the blocks it finds there and
// verifies only the rest, on the caller's goroutine in batched inner
// reads. A block enters the cache only after its digest matched, and an
// evicted block is fully re-verified on next use, so every byte ever
// returned was checked against the trusted root hash when it entered
// guest memory.
type Device struct {
	data     blockdev.Device
	hash     blockdev.Device
	meta     *Metadata
	perBlock int64

	// top is the pinned, root-verified top-level hash block; lastLevel
	// is its level index. The recursive verification of every other
	// block terminates here.
	top       []byte
	lastLevel int

	cache *blockCache
	// workers is how many shards VerifyAll splits the device into:
	// GOMAXPROCS at open. Tests vary it.
	workers int
}

// scratchPool recycles the miss path's batch read buffers, which only
// ever grow (up to readBatchBlocks blocks), so a cold read allocates
// only what the cache keeps.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

var _ blockdev.Device = (*Device)(nil)

// Open creates a verity device over data with the default Config; see
// OpenWithConfig.
func Open(data, hashDev blockdev.Device, meta *Metadata, rootHash [DigestSize]byte) (*Device, error) {
	return OpenWithConfig(data, hashDev, meta, rootHash, Config{})
}

// OpenWithConfig creates a verity device over data using the (untrusted)
// tree on hashDev and the trusted rootHash. The top-level block is
// verified immediately and pinned; everything else is verified lazily on
// read and retained in the verified-block cache.
func OpenWithConfig(data, hashDev blockdev.Device, meta *Metadata, rootHash [DigestSize]byte, cfg Config) (*Device, error) {
	if meta == nil {
		return nil, fmt.Errorf("%w: nil metadata", ErrBadSuperblock)
	}
	if err := meta.validate(data.Size(), hashDev.Size()); err != nil {
		return nil, err
	}
	d := &Device{
		data:      data,
		hash:      hashDev,
		meta:      meta,
		perBlock:  int64(meta.BlockSize / DigestSize),
		lastLevel: len(meta.LevelStarts) - 1,
		cache:     newBlockCache(cfg.CacheBlocks),
		workers:   runtime.GOMAXPROCS(0),
	}
	top := make([]byte, meta.BlockSize)
	if err := hashDev.ReadAt(top, meta.LevelStarts[d.lastLevel]); err != nil {
		return nil, fmt.Errorf("dmverity: read top hash block: %w", err)
	}
	if saltedDigest(meta.Salt, top) != rootHash {
		return nil, ErrRootHashMismatch
	}
	d.top = top
	return d, nil
}

// hashBlockFor returns the hash-device byte offset of the block at the
// given level that covers child index idx, plus the entry offset within it.
func (d *Device) hashBlockFor(level int, idx int64) (blockOff, entryOff int64) {
	b := idx / d.perBlock
	e := idx % d.perBlock
	return d.meta.LevelStarts[level] + b*int64(d.meta.BlockSize), e * DigestSize
}

// verifyHashBlock ensures the hash block at level `level` covering child
// index idx chains up to the (already verified) root, returning its
// contents. A freshly verified block enters the cache, displacing an
// older one only if evict is set. Returned slices are shared with the
// cache and must not be modified.
func (d *Device) verifyHashBlock(level int, idx int64, evict bool) ([]byte, error) {
	if level == d.lastLevel {
		return d.top, nil
	}
	blockOff, _ := d.hashBlockFor(level, idx)
	if block, ok := d.cache.get(hashKey(blockOff)); ok {
		return block, nil
	}
	// Once verified the block belongs to the cache, so it is allocated,
	// not pooled.
	block := make([]byte, d.meta.BlockSize)
	if err := d.hash.ReadAt(block, blockOff); err != nil {
		return nil, fmt.Errorf("dmverity: read hash block: %w", err)
	}
	// Verify this block against its parent entry (recursively verified).
	parentIdx := idx / d.perBlock // index of this block within its level
	parent, err := d.verifyHashBlock(level+1, parentIdx, evict)
	if err != nil {
		return nil, err
	}
	_, entryOff := d.hashBlockFor(level+1, parentIdx)
	want := parent[entryOff : entryOff+DigestSize]
	got := saltedDigest(d.meta.Salt, block)
	if !bytes.Equal(got[:], want) {
		return nil, &MismatchError{Level: level, Block: parentIdx}
	}
	d.cache.putHash(blockOff, block, evict)
	return block, nil
}

// readBatchBlocks bounds how many data blocks a run fetches per inner
// read — 128 KiB batches at the default 4 KiB block size.
const (
	readBatchBlocks   = 32
	formatBatchBlocks = 64
)

// copyBlock copies into p, which holds the device bytes from off on, the
// part of block (at device offset blockOff) that p covers.
func copyBlock(p []byte, off, blockOff int64, block []byte) {
	lo, hi := blockOff, blockOff+int64(len(block))
	if lo < off {
		lo = off
	}
	if end := off + int64(len(p)); hi > end {
		hi = end
	}
	copy(p[lo-off:hi-off], block[lo-blockOff:hi-blockOff])
}

// verifyRun reads data blocks [first, first+n) from the data device in
// batched inner reads and checks every one against the tree; any
// mismatch fails the run. A read passes p, its buffer of device bytes
// from off on: each block is copied into it once its own digest has
// matched, and each fully verified batch then enters the cache,
// displacing older blocks. A scan passes nil: what it verifies only
// fills free cache slots.
func (d *Device) verifyRun(first, n int64, p []byte, off int64) error {
	bs := int64(d.meta.BlockSize)
	evict := p != nil
	bufp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(bufp)
	if need := min(n, readBatchBlocks) * bs; int64(cap(*bufp)) < need {
		*bufp = make([]byte, need)
	}
	buf := *bufp
	// level0 is the verified hash block holding the digests of the
	// blocks being checked; it is looked up once per perBlock of them.
	var level0 []byte
	for b := first; b < first+n; b += readBatchBlocks {
		cnt := first + n - b
		if cnt > readBatchBlocks {
			cnt = readBatchBlocks
		}
		seg := buf[:cnt*bs]
		if err := d.data.ReadAt(seg, b*bs); err != nil {
			return fmt.Errorf("dmverity: read data block %d: %w", b, err)
		}
		for i := b; i < b+cnt; i++ {
			if level0 == nil || i%d.perBlock == 0 {
				var err error
				if level0, err = d.verifyHashBlock(0, i, evict); err != nil {
					return err
				}
			}
			_, entryOff := d.hashBlockFor(0, i)
			block := seg[(i-b)*bs : (i-b+1)*bs]
			got := saltedDigest(d.meta.Salt, block)
			if !bytes.Equal(got[:], level0[entryOff:entryOff+DigestSize]) {
				return &MismatchError{Level: 0, Block: i}
			}
			if p != nil {
				copyBlock(p, off, i*bs, block)
			}
		}
		d.cache.putData(b, seg, int(bs), evict)
	}
	return nil
}

// ReadAt implements blockdev.Device on the caller's goroutine. Blocks of
// the request found in the verified-block cache are copied out; each
// maximal run of missing blocks is read from the data device and
// verified block by block (see verifyRun). Any mismatch anywhere fails
// the whole read, and nothing unverified is ever copied into p.
func (d *Device) ReadAt(p []byte, off int64) error {
	if err := blockdev.CheckRange(d.Size(), off, len(p)); err != nil {
		return err
	}
	if len(p) == 0 {
		return nil
	}
	bs := int64(d.meta.BlockSize)
	first, last := off/bs, (off+int64(len(p))-1)/bs
	missFrom := int64(-1) // start of the current run of uncached blocks
	for i := first; i <= last; i++ {
		block, ok := d.cache.get(dataKey(i))
		if !ok {
			if missFrom < 0 {
				missFrom = i
			}
			continue
		}
		if missFrom >= 0 {
			if err := d.verifyRun(missFrom, i-missFrom, p, off); err != nil {
				return err
			}
			missFrom = -1
		}
		copyBlock(p, off, i*bs, block)
	}
	if missFrom >= 0 {
		return d.verifyRun(missFrom, last+1-missFrom, p, off)
	}
	return nil
}

// WriteAt implements blockdev.Device by always failing: verity targets are
// read-only by construction.
func (d *Device) WriteAt([]byte, int64) error { return blockdev.ErrReadOnly }

// Size implements blockdev.Device.
func (d *Device) Size() int64 { return d.meta.DataBlocks * int64(d.meta.BlockSize) }

// VerifyAll walks the entire device, re-reading and re-hashing every
// data block whether or not it is cached. This is the "dm-verity verify"
// boot service of Table 1; it splits the walk into d.workers shards
// verified at once and batches their data reads. Being a scan it evicts
// nothing, but blocks it has just verified fill free cache slots, so the
// reads that follow a boot do not hash them a second time.
func (d *Device) VerifyAll() error {
	return shards(d.workers, d.meta.DataBlocks, func(lo, hi int64) error {
		return d.verifyRun(lo, hi-lo, nil, 0)
	})
}

// MarshalBinary encodes the metadata as a fixed-layout superblock followed
// by variable sections, suitable for the integrity-metadata partition.
func (m *Metadata) MarshalBinary() ([]byte, error) {
	var b bytes.Buffer
	w := func(v any) { _ = binary.Write(&b, binary.LittleEndian, v) }
	w(uint32(superMagic))
	w(uint32(superVersion))
	w(uint32(m.BlockSize))
	w(uint32(len(m.Salt)))
	b.Write(m.Salt)
	w(m.DataBlocks)
	w(uint32(len(m.LevelStarts)))
	for i := range m.LevelStarts {
		w(m.LevelStarts[i])
		w(m.LevelBlocks[i])
	}
	b.Write(m.RootHash[:])
	return b.Bytes(), nil
}

// UnmarshalBinary decodes a superblock produced by MarshalBinary.
func (m *Metadata) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	read := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var magic, version, blockSize, saltLen uint32
	if err := read(&magic); err != nil || magic != superMagic {
		return fmt.Errorf("%w: magic", ErrBadSuperblock)
	}
	if err := read(&version); err != nil || version != superVersion {
		return fmt.Errorf("%w: version", ErrBadSuperblock)
	}
	if err := read(&blockSize); err != nil {
		return fmt.Errorf("%w: block size", ErrBadSuperblock)
	}
	if err := read(&saltLen); err != nil || saltLen > 4096 {
		return fmt.Errorf("%w: salt length", ErrBadSuperblock)
	}
	salt := make([]byte, saltLen)
	if _, err := io.ReadFull(r, salt); err != nil {
		return fmt.Errorf("%w: salt", ErrBadSuperblock)
	}
	var dataBlocks int64
	if err := read(&dataBlocks); err != nil {
		return fmt.Errorf("%w: data blocks", ErrBadSuperblock)
	}
	var numLevels uint32
	if err := read(&numLevels); err != nil || numLevels == 0 || numLevels > 64 {
		return fmt.Errorf("%w: level count", ErrBadSuperblock)
	}
	starts := make([]int64, numLevels)
	blocks := make([]int64, numLevels)
	for i := range starts {
		if err := read(&starts[i]); err != nil {
			return fmt.Errorf("%w: level start", ErrBadSuperblock)
		}
		if err := read(&blocks[i]); err != nil {
			return fmt.Errorf("%w: level blocks", ErrBadSuperblock)
		}
	}
	var root [DigestSize]byte
	if _, err := io.ReadFull(r, root[:]); err != nil {
		return fmt.Errorf("%w: root hash", ErrBadSuperblock)
	}
	m.BlockSize = int(blockSize)
	m.Salt = salt
	m.DataBlocks = dataBlocks
	m.LevelStarts = starts
	m.LevelBlocks = blocks
	m.RootHash = root
	return nil
}
