package gateway

import (
	"crypto/rand"
	"crypto/tls"
)

// Downstream, a TLS session resumption skips GetCertificate (the
// rotating fleet credential). Resumption is still wanted there — it is
// the difference between one signature and zero on a returning client's
// reconnect — so it is fenced by the gateway's policy epoch instead of
// disabled: the session-ticket key rotates to a fresh random key on every
// bump, so outstanding tickets die and clients re-enter through
// GetCertificate. Upstream, the gateway keeps no sessions: every new
// connection to a node is a full handshake whose evidence the verifier
// judges.

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
