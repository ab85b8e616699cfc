package attest

import (
	"bytes"
	"context"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"revelio/attestation"
	"revelio/internal/amdsp"
	"revelio/internal/kds"
	"revelio/internal/sev"
)

// vcekBodyServer stands up mfr's simulated KDS with every VCEK answered
// by body() instead, and returns its URL.
func vcekBodyServer(t testing.TB, mfr *amdsp.Manufacturer, body func() []byte) string {
	t.Helper()
	genuine := kds.NewServer(mfr)
	server := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasPrefix(req.URL.Path, kds.VCEKPathPrefix) {
			_, _ = w.Write(body())
			return
		}
		genuine.ServeHTTP(w, req)
	}))
	t.Cleanup(server.Close)
	return server.URL
}

// classified reports whether a refusal is a sentinel of the attestation
// taxonomy, the ones a caller such as the gateway branches on.
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
	return false
}

// FuzzVCEKResponse serves the fuzzed bytes as the VCEK body of an
// otherwise genuine simulated KDS and verifies a genuine report through a
// fresh client and verifier. Whatever the bytes: no panic; every refusal
// is classified; and an acceptance means the body is the chip's VCEK — a
// certificate whose signed part is the genuine VCEK's.
func FuzzVCEKResponse(f *testing.F) {
	mfr, err := amdsp.NewManufacturer([]byte("vcek-fuzz"))
	if err != nil {
		f.Fatal(err)
	}
	chip, rep := mintChip(f, mfr, "chip")
	other, _ := mintChip(f, mfr, "other-chip")
	genuine, err := mfr.VCEKCertDER(chip.ChipID(), chip.TCB())
	if err != nil {
		f.Fatal(err)
	}
	vcek, err := x509.ParseCertificate(genuine)
	if err != nil {
		f.Fatal(err)
	}
	otherChip, err := mfr.VCEKCertDER(other.ChipID(), other.TCB())
	if err != nil {
		f.Fatal(err)
	}
	otherTCB, err := mfr.VCEKCertDER(chip.ChipID(), chip.TCB()+1)
	if err != nil {
		f.Fatal(err)
	}
	ask, _, err := sev.ProductChain()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(genuine)
	f.Add(genuine[:len(genuine)/2])                                            // truncated
	f.Add(pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: genuine})) // PEM, not DER
	f.Add(ask.Raw)                                                             // the ASK in the VCEK's place
	f.Add(otherChip)                                                           // another chip's VCEK
	f.Add(otherTCB)                                                            // this chip's VCEK at another TCB
	f.Add([]byte("not a certificate"))

	var body atomic.Pointer[[]byte]
	url := vcekBodyServer(f, mfr, func() []byte { return *body.Load() })
	golden := NewStaticGolden(rep.Measurement)
	f.Fuzz(func(t *testing.T, data []byte) {
		body.Store(&data)
		_, err := NewVerifier(kds.NewClient(url, nil), golden).VerifyReport(context.Background(), rep)
		if err != nil {
			if !classified(err) {
				t.Fatalf("unclassified refusal: %v", err)
			}
			return
		}
		cert, err := x509.ParseCertificate(data)
		if err != nil || !bytes.Equal(cert.RawTBSCertificate, vcek.RawTBSCertificate) {
			t.Fatalf("accepted a VCEK body that is not the chip's VCEK: %x", data)
		}
	})
}
