package attest

import (
	"crypto/sha256"
	"crypto/x509"
	"time"

	"revelio/internal/p384"
	"revelio/internal/sev"
)

// reportCacheSize bounds each of the verifier's proof caches (the report
// cache and the VCEK-chain cache) to this many entries.
const reportCacheSize = 4096

// proofKey is the SHA-256 of the evidence being memoized: the full
// serialized report (signed bytes plus signature) for report proofs, or
// the VCEK's raw DER for chain proofs. Any bit flipped in the evidence
// changes the key, so tampered evidence can never hit a cached proof — it
// falls through to full cryptographic verification and fails there.
type proofKey [sha256.Size]byte

// reportProofKey digests everything the ECDSA verification covers: the
// fixed-size signed bytes, then the signature's own digest so that a
// signature of any length fits the one stack buffer (it runs on every
// lookup, and allocates nothing).
func reportProofKey(r *sev.Report) proofKey {
	var buf [sev.SignedSize + sha256.Size]byte
	sig := sha256.Sum256(r.Signature)
	return sha256.Sum256(append(r.AppendSigned(buf[:0]), sig[:]...))
}

// proof is one cached positive verification result. Only successes are
// ever stored; failures always re-run the full pipeline. The cache's
// fence serves a proof only at the policy revision it was minted under
// and while the verifier's clock is inside every validity window of the
// proving chain — at neither end may a cached result outlive the chain
// walk's checks of the clock.
type proof struct {
	vcek *x509.Certificate // the chain-validated VCEK that proved the evidence
	key  *p384.PublicKey   // vcek's prepared key (≈ 4.6 KB); nil for a report proof
	// notBefore and notAfter bound the chain proof's fence — the latest
	// NotBefore and the earliest NotAfter of VCEK, ASK and ARK — and are
	// handed on to the report proofs built on it.
	notBefore, notAfter time.Time
}

// overlap is where the validity windows of certs overlap: the fence of a
// proof they made.
func overlap(certs ...*x509.Certificate) (notBefore, notAfter time.Time) {
	notBefore, notAfter = certs[0].NotBefore, certs[0].NotAfter
	for _, c := range certs[1:] {
		if c.NotBefore.After(notBefore) {
			notBefore = c.NotBefore
		}
		if c.NotAfter.Before(notAfter) {
			notAfter = c.NotAfter
		}
	}
	return notBefore, notAfter
}
