// Package ratls integrates remote attestation with TLS in the style of
// Knauth et al. and RATLS, which the paper names as complementary
// approaches (§7): instead of binding a CA-issued certificate to the TEE
// via REPORT_DATA, the attestation evidence travels *inside* the
// certificate itself, as an X.509 extension of a self-signed certificate
// whose key pair lives in the TEE.
//
// The result is an attested channel with no CA in the loop: the verifier
// ignores the (meaningless) issuer signature and instead validates the
// embedded evidence — for SEV-SNP the VCEK chain via the KDS, the
// measurement policy, and the binding to the certificate's public key.
// This is the transport between the gateway and the nodes behind it,
// where both ends know the golden values and no browser is involved.
//
// There is one dialect: the extension carries the JSON report bundle
// (attest.Bundle) every other hop ships too — a node's well-known
// endpoint serves the same format — issued by an Issuer (snp.Provider,
// in production) and verified by a Verifier (the SEV-SNP verifier
// itself, snp.Verifier).
package ratls

import (
	"fmt"

	"revelio/attestation"
)

// The RA-TLS sentinels sit in the attestation taxonomy, so a caller that
// fails closed on its roots catches them too.
var (
	// ErrNoEvidence reports a peer certificate without the attestation
	// extension.
	ErrNoEvidence = fmt.Errorf("%w: ratls: certificate carries no attestation evidence", attestation.ErrEvidenceInvalid)
	// ErrKeyMismatch reports evidence that does not bind the
	// certificate's own public key.
	ErrKeyMismatch = fmt.Errorf("%w: ratls: evidence does not bind certificate key", attestation.ErrBindingMismatch)
	// ErrNoPeerCertificate reports a TLS connection without a peer
	// certificate.
	ErrNoPeerCertificate = fmt.Errorf("%w: ratls: no peer certificate", attestation.ErrEvidenceInvalid)
)
