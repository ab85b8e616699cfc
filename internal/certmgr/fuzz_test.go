package certmgr

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"errors"
	"strings"
	"testing"

	"revelio/attestation"
	"revelio/internal/attest"
	"revelio/internal/p384"
	"revelio/internal/sev"
)

// classified reports whether a refusal of verifyCSRBundle is one a caller
// can branch on: a sentinel of the attestation taxonomy, or the CSR's own
// two refusals.
func classified(err error) bool {
	for _, sentinel := range []error{
		attestation.ErrPolicyRejected,
		attestation.ErrEvidenceInvalid,
		attestation.ErrEvidenceExpired,
		attestation.ErrKDSUnavailable,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	msg := err.Error()
	return strings.HasPrefix(msg, "bad csr: ") || strings.HasPrefix(msg, "csr signature: ")
}

// FuzzVerifyCSRBundle drives the judgment the SP node and the leader's
// key-request handler pass on a node's identity evidence with the bytes
// the network controls: a JSON body, decoded as the handler decodes it,
// then verifyCSRBundle under a verifier over the simulated KDS. Whatever
// the bytes: no panic; every refusal is classified (the attestation
// taxonomy, or "bad csr" / "csr signature"); and an acceptance is a
// genuine node's bundle — judged without the verifier, by signedByChip.
//
// Every fuzzing process boots its own node, with a fresh identity key
// and a fresh report signature, from the same manufacturer and chip
// seeds; so the seed bundle one process built is just as genuine in
// another, and the oracle asks "did this chip sign this payload under the
// golden measurement", not "is this the bundle this process built".
func FuzzVerifyCSRBundle(f *testing.F) {
	c := newCluster(f, 1)
	genuine, err := c.agents[0].csrBundle()
	if err != nil {
		f.Fatal(err)
	}
	encode := func(b *attest.Bundle) []byte {
		body, err := b.Encode()
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	report, csr := genuine.ReportRaw, genuine.Payload
	body := encode(genuine)
	f.Add(body)
	f.Add(body[:len(body)/2]) // a body cut off mid-JSON
	f.Add(encode(&attest.Bundle{ReportRaw: report[:len(report)/2], Payload: csr}))
	f.Add(encode(&attest.Bundle{ReportRaw: report, Payload: csr[:len(csr)-20]}))

	// The forged key request: a genuine report around another key's CSR.
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	otherCSR, err := x509.CreateCertificateRequest(rand.Reader, &x509.CertificateRequest{
		DNSNames: []string{"svc.example.org"},
	}, key)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encode(&attest.Bundle{ReportRaw: report, Payload: otherCSR}))
	f.Add([]byte(`{"report":null,"payload":null}`))
	f.Add([]byte("not json"))

	// signedByChip is the oracle for an acceptance: the report parses, the
	// chip's own VCEK — taken from the manufacturer, not through the KDS
	// client the verifier uses — signed it, it binds exactly this payload,
	// and it measures the golden image.
	signedByChip := func(b *attest.Bundle) error {
		var report sev.Report
		if err := report.UnmarshalBinary(b.ReportRaw); err != nil {
			return err
		}
		der, err := c.mfr.VCEKCertDER(report.ChipID, report.TCBVersion)
		if err != nil {
			return err
		}
		cert, err := x509.ParseCertificate(der)
		if err != nil {
			return err
		}
		key, err := p384.NewPublicKey(cert.PublicKey.(*ecdsa.PublicKey))
		if err != nil {
			return err
		}
		if err := report.Verify(key); err != nil {
			return err
		}
		if report.ReportData != sev.HashOf(b.Payload) {
			return errors.New("report does not bind the payload")
		}
		if report.Measurement != c.golden {
			return errors.New("report does not measure the golden image")
		}
		return nil
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := attest.DecodeBundle(data)
		if err != nil {
			if !classified(err) {
				t.Fatalf("unclassified decode failure: %v", err)
			}
			return // the handler answers 400 before any judgment
		}
		_, csr, err := verifyCSRBundle(context.Background(), c.verifier, b)
		if err != nil {
			if !classified(err) {
				t.Fatalf("unclassified refusal: %v", err)
			}
			return
		}
		if err := signedByChip(b); err != nil {
			t.Fatalf("accepted a bundle that is not a genuine node's (%v):\n report %x\n csr    %x", err, b.ReportRaw, b.Payload)
		}
		if csr == nil || csr.CheckSignature() != nil {
			t.Fatal("accepted without a CSR signed by the key it carries")
		}
	})
}
