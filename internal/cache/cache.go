// Package cache is the repository's one bounded cache of things that
// were expensive to prove: verified attestation reports and certificate
// chains (attest), and the KDS client's parsed VCEK certificates and
// ASK/ARK pair, one instance behind its one miss path (kds). The attest
// verifier is the only place an attestation verdict is cached; the
// layers above it (RA-TLS, the gateway) ask it again on every handshake.
//
// Every entry is stored under a fence — the revision it was proven at
// and the time its proof stops holding — and the fence is enforced here,
// once: an entry is never served at another revision, never after its
// notAfter, and a stale entry is dropped the moment a lookup sees it. A
// caller that bumps its revision therefore invalidates everything it
// stored without touching the cache, which is how a revocation bites
// through every layer on the very next lookup.
//
// dm-verity's verified-block cache is deliberately not an instance: its
// two-list policy (a data block never displaces a hash block) is a
// different algorithm.
package cache

import (
	"container/list"
	"sync"
	"time"
)

// shardCount is how many independently locked LRUs a sharded cache is
// split into. Must be a power of two no larger than 256 (the shard is
// picked from one byte).
const shardCount = 16

// Cache is a bounded LRU of fenced entries, safe for concurrent use.
type Cache[K comparable, V any] struct {
	shards  []shard[K, V]
	shardOf func(K) uint8 // nil when there is one shard
}

type shard[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	lru *list.List // front = most recently used; holds *entry[K, V]
	idx map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key      K
	val      V
	rev      uint64
	notAfter time.Time // zero = never expires
}

// New returns a cache holding at most capacity entries (at least one)
// in exact least-recently-used order under one lock.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return build[K, V](capacity, 1, nil)
}

// NewSharded returns a cache whose entries are spread over independently
// locked LRUs by shardOf(key), for callers whose lookups run on many
// goroutines at once. The bound is per shard (capacity/16, at least
// one), so shardOf should spread keys evenly — the first byte of a
// digest does.
func NewSharded[K comparable, V any](capacity int, shardOf func(K) uint8) *Cache[K, V] {
	return build[K, V](capacity/shardCount, shardCount, shardOf)
}

func build[K comparable, V any](perShard, shards int, shardOf func(K) uint8) *Cache[K, V] {
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache[K, V]{shards: make([]shard[K, V], shards), shardOf: shardOf}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].lru = list.New()
		c.shards[i].idx = make(map[K]*list.Element, perShard)
	}
	return c
}

func (c *Cache[K, V]) shard(k K) *shard[K, V] {
	if c.shardOf == nil {
		return &c.shards[0]
	}
	return &c.shards[c.shardOf(k)&(shardCount-1)]
}

// Get returns the entry for k if it was stored at revision rev and now
// is not past its notAfter (x509 semantics: valid through notAfter
// inclusive). An entry that fails either test is removed, so dead
// entries never occupy capacity.
func (c *Cache[K, V]) Get(k K, rev uint64, now time.Time) (v V, ok bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, held := s.idx[k]
	if !held {
		return v, false
	}
	e := el.Value.(*entry[K, V])
	if e.rev != rev || (!e.notAfter.IsZero() && now.After(e.notAfter)) {
		s.lru.Remove(el)
		delete(s.idx, k)
		return v, false
	}
	s.lru.MoveToFront(el)
	return e.val, true
}

// Put stores v under k, fenced by rev and notAfter (the zero time means
// the entry never expires), replacing any entry for k and evicting the
// least recently used entry of a full shard.
func (c *Cache[K, V]) Put(k K, v V, rev uint64, notAfter time.Time) {
	e := &entry[K, V]{key: k, val: v, rev: rev, notAfter: notAfter}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.idx[k]; ok {
		el.Value = e
		s.lru.MoveToFront(el)
		return
	}
	s.idx[k] = s.lru.PushFront(e)
	for s.lru.Len() > s.cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.idx, oldest.Value.(*entry[K, V]).key)
	}
}

// Delete removes the entry for k, if any.
func (c *Cache[K, V]) Delete(k K) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.idx[k]; ok {
		s.lru.Remove(el)
		delete(s.idx, k)
	}
}

// Purge removes every entry.
func (c *Cache[K, V]) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.lru.Init()
		clear(s.idx)
		s.mu.Unlock()
	}
}

// Len reports the number of stored entries, stale ones included until a
// lookup drops them.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}
