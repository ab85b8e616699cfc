package attest

import (
	"container/list"
	"crypto/sha256"
	"crypto/x509"
	"sync"
	"time"

	"revelio/internal/sev"
)

// proofShardCount shards the verified-report cache so concurrent
// verifiers (one per handshake on a busy node) don't serialize on one
// mutex. Must be a power of two.
const proofShardCount = 16

// DefaultReportCacheSize bounds the verifier's proof caches (entries
// across all shards, for each of the report and VCEK-chain caches).
const DefaultReportCacheSize = 4096

// proofKey is the SHA-256 of the evidence being memoized: the full
// serialized report (signed bytes plus signature) for report proofs, or
// the raw certificate DER for chain proofs (the VCEK's, or the ASK's and
// ARK's for a link proof). Any bit flipped in the
// evidence changes the key, so tampered evidence can never hit a cached
// proof — it falls through to full cryptographic verification and fails
// there.
type proofKey [sha256.Size]byte

// reportProofKey digests everything the ECDSA verification covers.
func reportProofKey(r *sev.Report) proofKey {
	h := sha256.New()
	h.Write(r.SignedBytes())
	h.Write(r.Signature)
	var k proofKey
	h.Sum(k[:0])
	return k
}

// linkProofKey digests the ASK and ARK certificates whose link a whole
// chain walk proved. The label keeps it apart from a VCEK's key in the
// same cache; DER is self-delimiting, so the pair cannot be re-split.
func linkProofKey(ask, ark *x509.Certificate) proofKey {
	h := sha256.New()
	h.Write([]byte("revelio/ask-ark-link"))
	h.Write(ask.Raw)
	h.Write(ark.Raw)
	var k proofKey
	h.Sum(k[:0])
	return k
}

// proof is one cached positive verification result. Only successes are
// ever stored; failures always re-run the full pipeline. A proof is
// only served while the verifier's clock is inside the proving VCEK's
// validity window — the chain walk's CurrentTime check must not be
// outlived by its cached result.
type proof struct {
	key      proofKey
	vcek     *x509.Certificate // the chain-validated VCEK that proved the evidence; nil for an ASK-link proof
	rev      uint64            // policy revision at proof time
	notAfter time.Time         // earliest NotAfter in the proving chain: hard expiry
}

// proofCache is a sharded bounded LRU of positive verification results.
type proofCache struct {
	shards [proofShardCount]proofShard
}

type proofShard struct {
	mu  sync.Mutex
	cap int
	lru *list.List // holds *proof
	idx map[proofKey]*list.Element
}

func newProofCache(capacity int) *proofCache {
	if capacity <= 0 {
		capacity = DefaultReportCacheSize
	}
	perShard := capacity / proofShardCount
	if perShard < 1 {
		perShard = 1
	}
	c := &proofCache{}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].lru = list.New()
		c.shards[i].idx = make(map[proofKey]*list.Element, perShard)
	}
	return c
}

func (c *proofCache) shard(k proofKey) *proofShard {
	return &c.shards[int(k[0])&(proofShardCount-1)]
}

// get returns the cached proof if present, minted at the given policy
// revision, AND still inside the proving certificate's validity window
// at time now; stale entries are dropped on sight.
func (c *proofCache) get(k proofKey, rev uint64, now time.Time) (*proof, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.idx[k]
	if !ok {
		return nil, false
	}
	p := el.Value.(*proof)
	if p.rev != rev || now.After(p.notAfter) {
		s.lru.Remove(el)
		delete(s.idx, k)
		return nil, false
	}
	s.lru.MoveToFront(el)
	return p, true
}

// put records a positive proof, evicting the least recently used entry
// of its shard when full.
func (c *proofCache) put(p *proof) {
	s := c.shard(p.key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.idx[p.key]; ok {
		s.lru.MoveToFront(el)
		el.Value = p
		return
	}
	s.idx[p.key] = s.lru.PushFront(p)
	for s.lru.Len() > s.cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.idx, oldest.Value.(*proof).key)
	}
}

// len reports the total number of cached proofs across shards.
func (c *proofCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}
