package gateway

import (
	"crypto/rand"
	"crypto/tls"
	"time"

	"revelio/internal/cache"
)

// TLS session resumption skips certificate verification on both of the
// gateway's planes: an upstream resumption skips VerifyPeerCertificate
// (the RA-TLS evidence check), a downstream resumption skips
// GetCertificate (the rotating fleet credential). Resumption is still
// wanted — it is the difference between one signature and zero on the
// reconnect path at high connection counts — so both planes fence it by
// the gateway's policy epoch instead of disabling it:
//
//   - upstream, epochSessionCache tags every stored session with the
//     epoch it was minted under and refuses to resume across a bump, so
//     a revocation forces the next connection through a full, verified
//     handshake (and VerifyConnection re-judges the evidence of the
//     resumptions that are allowed);
//   - downstream, the session-ticket key rotates to a fresh random key
//     on every bump, so outstanding tickets die and clients re-enter
//     through GetCertificate.

// defaultSessionCacheSize bounds the upstream session cache; sessions
// are keyed per node address, so this only needs to cover the fleet.
const defaultSessionCacheSize = 256

// epochSessionCache is a tls.ClientSessionCache fenced by a monotone
// epoch (the gateway's policy epoch): the fenced cache's revision is the
// epoch a session was stored under, so sessions stored under an older
// epoch are never resumed. Sessions carry no expiry of their own.
type epochSessionCache struct {
	epoch    func() uint64
	sessions *cache.Cache[string, *tls.ClientSessionState]
}

func newEpochSessionCache(epoch func() uint64) *epochSessionCache {
	return &epochSessionCache{
		epoch:    epoch,
		sessions: cache.New[string, *tls.ClientSessionState](defaultSessionCacheSize),
	}
}

// Put implements tls.ClientSessionCache; a nil session removes the key.
func (c *epochSessionCache) Put(key string, cs *tls.ClientSessionState) {
	if cs == nil {
		c.sessions.Delete(key)
		return
	}
	c.sessions.Put(key, cs, c.epoch(), time.Time{})
}

// Get implements tls.ClientSessionCache.
func (c *epochSessionCache) Get(key string) (*tls.ClientSessionState, bool) {
	return c.sessions.Get(key, c.epoch(), time.Time{})
}

// flush drops every stored session. The epoch fence alone already
// refuses stale resumptions; flushing on the bump additionally frees
// the ticket bytes promptly instead of leaving dead sessions to age out
// of the LRU.
func (c *epochSessionCache) flush() { c.sessions.Purge() }

// rotateTicketKey installs a fresh random session-ticket key on the
// downstream TLS config, replacing — not appending to — the previous
// set, so every ticket minted before the call stops resuming. Called
// at Start (taking ownership of ticket keys from crypto/tls's automatic
// rotation) and on every policy-epoch bump.
func rotateTicketKey(cfg *tls.Config) {
	var key [32]byte
	if _, err := rand.Read(key[:]); err != nil {
		// crypto/rand does not fail on supported platforms; if it ever
		// does, keeping the previous key is the only option that neither
		// breaks live handshakes nor installs a guessable key.
		return
	}
	cfg.SetSessionTicketKeys([][32]byte{key})
}
