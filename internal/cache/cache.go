// Package cache is the repository's one bounded cache of things that
// were expensive to prove: verified attestation reports and VCEK chains
// (attest), and the KDS client's parsed certificates, one instance behind
// its one miss path (kds). The attest verifier is the only place an
// attestation verdict is cached; the layers above it (RA-TLS, the
// gateway) ask it again on every handshake.
//
// Every entry is stored under a fence — the revision it was proven at
// and the interval its proof holds in, notBefore through notAfter — and
// the fence is enforced here, once: an entry is never served at another
// revision, never before its notBefore, never after its notAfter, and a
// stale entry is dropped the moment a lookup sees it. A caller that bumps
// its revision therefore invalidates everything it stored without
// touching the cache, which is how a revocation bites through every layer
// on the very next lookup.
//
// A cache is one exact LRU under one mutex. A lookup holds it for a map
// probe and a list splice, and no caller runs enough of them to contend
// on it: the busiest, a browser session, verifies one report per
// attestation.
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

// Cache is a bounded LRU of fenced entries, safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	lru *list.List // front = most recently used; holds *entry[K, V]
	idx map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key       K
	val       V
	rev       uint64
	notBefore time.Time // zero = no lower bound
	notAfter  time.Time // zero = never expires
}

// New returns a cache holding at most capacity entries (at least one)
// in exact least-recently-used order.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	capacity = max(capacity, 1)
	return &Cache[K, V]{cap: capacity, lru: list.New(), idx: make(map[K]*list.Element, capacity)}
}

// Get returns the entry for k if it was stored at revision rev and now
// is inside its interval (x509 semantics: valid from notBefore through
// notAfter, both inclusive). An entry that fails either test is removed,
// so dead entries never occupy capacity.
func (c *Cache[K, V]) Get(k K, rev uint64, now time.Time) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, held := c.idx[k]
	if !held {
		return v, false
	}
	e := el.Value.(*entry[K, V])
	if e.rev != rev || now.Before(e.notBefore) || (!e.notAfter.IsZero() && now.After(e.notAfter)) {
		c.lru.Remove(el)
		delete(c.idx, k)
		return v, false
	}
	c.lru.MoveToFront(el)
	return e.val, true
}

// Put stores v under k, fenced by rev and the interval notBefore through
// notAfter (a zero notBefore means no lower bound, a zero notAfter that
// the entry never expires), replacing any entry for k and evicting the
// least recently used entry of a full cache.
func (c *Cache[K, V]) Put(k K, v V, rev uint64, notBefore, notAfter time.Time) {
	e := &entry[K, V]{key: k, val: v, rev: rev, notBefore: notBefore, notAfter: notAfter}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[k]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.idx[k] = c.lru.PushFront(e)
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.idx, oldest.Value.(*entry[K, V]).key)
	}
}

// Delete removes the entry for k, if any.
func (c *Cache[K, V]) Delete(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[k]; ok {
		c.lru.Remove(el)
		delete(c.idx, k)
	}
}

// Purge removes every entry.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	clear(c.idx)
}

// Len reports the number of stored entries, stale ones included until a
// lookup drops them.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
