package dmverity

import (
	"container/list"
	"sync"
)

// DefaultCacheBlocks is the default capacity of the verified-block
// cache. It stays at 1024 blocks — 4 MiB of guest memory per opened
// device at the default 4 KiB block size — because that already holds
// what both users need: the whole of a Revelio rootfs image (≈ 2 MiB of
// data plus a handful of tree blocks), so a booted guest serves its
// files without re-hashing, and, for a device far larger than the
// cache, every tree level above the leaves into the tens of gigabytes
// (hash blocks are never displaced by data blocks, see blockCache).
// Raising it would only add resident memory per fleet node.
const DefaultCacheBlocks = 1024

// blockCache is the device's one bounded cache of verified blocks:
// hash-device blocks whose digests have been proven to chain up to the
// trusted root hash, and data blocks whose digests matched such a hash
// block. Both kinds count against the same capacity and are told apart
// by key (dataKey, hashKey). A hit returns the verified bytes directly —
// for a hash block skipping the hash-device read and the walk up the
// tree, for a data block skipping the data-device read and the digest —
// and a miss (including after eviction) forces full re-verification, so
// tampering with either device after eviction is still caught: the
// cache can only ever serve bytes it verified.
//
// Each kind is kept in LRU order, and a full cache evicts its least
// recently used data block first. A data block therefore never
// displaces a hash block (one hash block vouches for 128 data blocks,
// and a scan of data must not flush the tree); a cache filled entirely
// by the tree admits no data and behaves as the hash-block cache it
// used to be.
//
// It is safe for concurrent use; the parallel read path hits it from
// every worker. Cached slices are never written after insertion and
// never reused after eviction, so callers may read them without the
// lock but must treat them as immutable.
type blockCache struct {
	mu   sync.Mutex
	cap  int
	idx  map[int64]*list.Element
	hash *list.List // front = most recently used; holds *cacheEntry
	data *list.List
}

type cacheEntry struct {
	key   int64
	block []byte
}

// dataKey is the cache key of data block i.
func dataKey(i int64) int64 { return i }

// hashKey is the cache key of the hash block at hash-device offset off;
// it is negative, so it never collides with a dataKey.
func hashKey(off int64) int64 { return ^off }

func newBlockCache(capacity int) *blockCache {
	if capacity <= 0 {
		capacity = DefaultCacheBlocks
	}
	return &blockCache{
		cap:  capacity,
		idx:  make(map[int64]*list.Element, capacity),
		hash: list.New(),
		data: list.New(),
	}
}

// lruOf returns the list that holds entries of key's kind.
func (c *blockCache) lruOf(key int64) *list.List {
	if key < 0 {
		return c.hash
	}
	return c.data
}

// get returns the verified block stored under key, if cached.
func (c *blockCache) get(key int64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[key]
	if !ok {
		return nil, false
	}
	c.lruOf(key).MoveToFront(el)
	return el.Value.(*cacheEntry).block, true
}

// full reports whether every slot is taken. Callers hold mu.
func (c *blockCache) full() bool { return c.hash.Len()+c.data.Len() >= c.cap }

// evict drops the least recently used entry of lru. Callers hold mu.
func (c *blockCache) evict(lru *list.List) {
	oldest := lru.Back()
	lru.Remove(oldest)
	delete(c.idx, oldest.Value.(*cacheEntry).key)
}

// putHash records a freshly verified hash block. When the cache is full
// it displaces, if evict is set, the least recently used data block —
// or, with none cached, hash block; otherwise the block is dropped. On
// insertion the cache takes ownership of block.
func (c *blockCache) putHash(off int64, block []byte, evict bool) {
	key := hashKey(off)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.idx[key]; ok {
		return // a concurrent reader verified the same block first
	}
	if c.full() {
		switch {
		case !evict:
			return
		case c.data.Len() > 0:
			c.evict(c.data)
		default:
			c.evict(c.hash)
		}
	}
	c.idx[key] = c.hash.PushFront(&cacheEntry{key: key, block: block})
}

// putData offers the cache a run of freshly verified data blocks: blocks
// holds len(blocks)/bs of them, starting at data block first. The cache
// keeps its own copy — one slab for the run — so the caller may reuse
// blocks. With evict set (a read) the run displaces the least recently
// used data blocks; without it (a scan) the run only fills free slots.
// Whatever does not fit is dropped.
func (c *blockCache) putData(first int64, blocks []byte, bs int, evict bool) {
	c.mu.Lock()
	room := c.cap - c.hash.Len()
	if !evict {
		room -= c.data.Len()
	}
	n := min(len(blocks)/bs, room)
	missing := false
	for j := 0; j < n && !missing; j++ {
		_, ok := c.idx[dataKey(first+int64(j))]
		missing = !ok
	}
	c.mu.Unlock()
	if !missing {
		return // no room, or a re-scan of what is already cached
	}
	// Copy outside the lock: warm readers keep being served meanwhile.
	slab := append([]byte(nil), blocks[:n*bs]...)

	c.mu.Lock()
	defer c.mu.Unlock()
	for j := 0; j < n; j++ {
		key := dataKey(first + int64(j))
		if _, ok := c.idx[key]; ok {
			continue
		}
		if c.full() {
			// The room seen above may be gone by now (a concurrent
			// insert); the policy is re-checked per block.
			if !evict || c.data.Len() == 0 {
				return
			}
			c.evict(c.data)
		}
		c.idx[key] = c.data.PushFront(&cacheEntry{key: key, block: slab[j*bs : (j+1)*bs : (j+1)*bs]})
	}
}

// len reports the number of cached blocks of both kinds.
func (c *blockCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hash.Len() + c.data.Len()
}
