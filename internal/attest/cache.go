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
// the raw certificate DER for chain proofs (the VCEK's, or the ASK's and
// ARK's for a link proof). Any bit flipped in the
// evidence changes the key, so tampered evidence can never hit a cached
// proof — it falls through to full cryptographic verification and fails
// there.
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
// ever stored; failures always re-run the full pipeline. The cache's
// fence serves a proof only at the policy revision it was minted under
// and while the verifier's clock is inside the proving chain's validity
// window — the chain walk's CurrentTime check must not be outlived by
// its cached result.
type proof struct {
	vcek     *x509.Certificate // the chain-validated VCEK that proved the evidence; nil for an ASK-link proof
	key      *p384.PublicKey   // the prepared key (≈ 4.6 KB) of vcek, or of the ASK in an ASK-link proof; nil for a report proof and for an ASK not on P-384
	notAfter time.Time         // earliest NotAfter in the proving chain, handed on to proofs built on this one
}
