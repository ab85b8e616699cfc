package ratls

import (
	"bytes"
	"context"
	"crypto"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"revelio/attestation"
	"revelio/attestation/snp"
	"revelio/internal/amdsp"
	"revelio/internal/attest"
	"revelio/internal/firmware"
	"revelio/internal/hypervisor"
	"revelio/internal/imagebuild"
	"revelio/internal/kds"
	"revelio/internal/measure"
	"revelio/internal/registry"
	"revelio/internal/vm"
)

type rig struct {
	vm       *vm.VM
	verifier *attest.Verifier
	golden   measure.Measurement
	client   *kds.Client
	hits     atomic.Int64 // KDS round trips observed
}

func newRig(t testing.TB) *rig {
	t.Helper()
	mfr, err := amdsp.NewManufacturer([]byte("ratls-test"))
	if err != nil {
		t.Fatal(err)
	}
	chip, err := mfr.MintProcessor([]byte("chip"), 5)
	if err != nil {
		t.Fatal(err)
	}
	reg := imagebuild.NewRegistry()
	base := imagebuild.PublishUbuntuBase(reg)
	spec := imagebuild.CryptpadSpec(base)
	spec.PersistSize = 256 * 1024
	img, err := imagebuild.NewBuilder(reg).Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	fw := firmware.NewOVMF("2023.05")
	guest, err := hypervisor.New(chip).Launch(hypervisor.Config{
		Firmware: fw,
		Blobs:    hypervisor.BootBlobs{Kernel: img.Kernel, Initrd: img.Initrd, Cmdline: img.Cmdline},
	})
	if err != nil {
		t.Fatal(err)
	}
	guestVM, err := vm.Boot(guest, vm.BootConfig{Disk: img.Disk, Table: img.Table, Domain: "node.internal"})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{vm: guestVM}
	kdsHandler := kds.NewServer(mfr)
	kdsServer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.hits.Add(1)
		kdsHandler.ServeHTTP(w, req)
	}))
	t.Cleanup(kdsServer.Close)
	golden, err := hypervisor.ExpectedMeasurement(fw, hypervisor.BootBlobs{
		Kernel: img.Kernel, Initrd: img.Initrd, Cmdline: img.Cmdline,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.client = kds.NewClient(kdsServer.URL, nil)
	r.golden = golden
	r.verifier = attest.NewVerifier(r.client, attest.NewStaticGolden(golden))
	return r
}

// provider is both halves of the SEV-SNP provider over the rig's guest:
// the issuer a node mints its certificate with and the verifier a
// relying party checks it under.
func (r *rig) provider(v *attest.Verifier) *snp.Provider {
	return snp.NewNodeProvider(r.vm, v)
}

// mint issues an RA-TLS certificate for the rig's guest.
func (r *rig) mint(t testing.TB) tls.Certificate {
	t.Helper()
	cert, err := CreateProviderCertificate(context.Background(), r.provider(r.verifier), "node.internal")
	if err != nil {
		t.Fatalf("CreateProviderCertificate: %v", err)
	}
	return cert
}

// votedRegistry returns a registry that trusts the rig's golden value by
// vote, so a test can revoke it.
func (r *rig) votedRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	reg := registry.New(1)
	reg.AddVoter("dao")
	if err := reg.Propose(r.golden, "v1"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Vote("dao", r.golden); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestCertificateCarriesCanonicalKeyEncoding: VerifyProviderCertificate
// compares the certificate's SubjectPublicKeyInfo as it stands with the
// bundle's payload, which is x509.MarshalPKIXPublicKey of the key. For a
// certificate CreateProviderCertificate mints the two are the same bytes;
// that, and the report binding exactly them, is what the comparison
// rests on. The extension is the bundle as a well-known endpoint serves
// it: attest.DecodeBundle reads it, and nothing wraps it.
func TestCertificateCarriesCanonicalKeyEncoding(t *testing.T) {
	r := newRig(t)
	parsed, err := x509.ParseCertificate(r.mint(t).Certificate[0])
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := x509.MarshalPKIXPublicKey(parsed.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parsed.RawSubjectPublicKeyInfo, canonical) {
		t.Errorf("raw SubjectPublicKeyInfo\n %x is not MarshalPKIXPublicKey of the parsed key\n %x", parsed.RawSubjectPublicKeyInfo, canonical)
	}
	if _, err := VerifyProviderCertificate(context.Background(), r.provider(r.verifier), parsed); err != nil {
		t.Fatal(err)
	}
	bundle, err := ExtractEvidence(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bundle.Payload, canonical) {
		t.Errorf("attested payload %x, want the key's canonical encoding %x", bundle.Payload, canonical)
	}
}

func TestCertificateCarriesValidEvidence(t *testing.T) {
	r := newRig(t)
	cert := r.mint(t)
	parsed, err := x509.ParseCertificate(cert.Certificate[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := VerifyProviderCertificate(context.Background(), r.provider(r.verifier), parsed)
	if err != nil {
		t.Fatalf("VerifyProviderCertificate: %v", err)
	}
	if res.Report.Measurement != r.golden {
		t.Error("evidence measurement differs from golden")
	}
}

func TestCertificateWithoutEvidenceRejected(t *testing.T) {
	r := newRig(t)
	// A plain self-signed cert (e.g. from a non-TEE server).
	srv := httptest.NewTLSServer(http.NotFoundHandler())
	t.Cleanup(srv.Close)
	plain := srv.Certificate()
	if _, err := VerifyProviderCertificate(context.Background(), r.provider(r.verifier), plain); !errors.Is(err, ErrNoEvidence) || !errors.Is(err, attestation.ErrEvidenceInvalid) {
		t.Errorf("err = %v, want ErrNoEvidence under attestation.ErrEvidenceInvalid", err)
	}
}

// TestEvidenceTransplantRejected: stealing valid evidence and grafting it
// onto a different key pair fails the key binding.
func TestEvidenceTransplantRejected(t *testing.T) {
	r := newRig(t)
	victim := r.mint(t)
	victimParsed, err := x509.ParseCertificate(victim.Certificate[0])
	if err != nil {
		t.Fatal(err)
	}
	evidence, err := ExtractEvidence(victimParsed)
	if err != nil {
		t.Fatal(err)
	}
	evidenceJSON, err := evidence.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// The attacker self-signs their own cert with the stolen extension.
	attacker := httptest.NewUnstartedServer(http.NotFoundHandler())
	attacker.StartTLS()
	t.Cleanup(attacker.Close)
	atkCert := attacker.Certificate()
	// Simulate the graft: verify the stolen evidence against the
	// attacker's certificate key.
	fake := *atkCert
	fake.Extensions = append(append([]pkix.Extension(nil), fake.Extensions...),
		pkix.Extension{Id: OIDAttestationEvidence, Value: evidenceJSON})
	if _, err := VerifyProviderCertificate(context.Background(), r.provider(r.verifier), &fake); !errors.Is(err, ErrKeyMismatch) || !errors.Is(err, attestation.ErrEvidenceInvalid) {
		t.Errorf("err = %v, want ErrKeyMismatch under attestation.ErrEvidenceInvalid", err)
	}
}

// envelope wraps a bundle the way the provider-tagged RA-TLS extension
// of earlier releases did: the payload beside a document holding the
// bundle.
func envelope(t testing.TB, b *attest.Bundle) []byte {
	t.Helper()
	out, err := json.Marshal(map[string]any{
		"provider": "sev-snp",
		"payload":  b.Payload,
		"document": map[string]any{"bundle": b},
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEnvelopeExtensionRejected: a certificate whose extension wraps a
// genuine bundle, bound to the certificate's own key, in the old
// provider-tagged envelope carries no report where the bundle's belongs,
// so it is refused as invalid evidence.
func TestEnvelopeExtensionRejected(t *testing.T) {
	r := newRig(t)
	minted := r.mint(t)
	parsed, err := x509.ParseCertificate(minted.Certificate[0])
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := ExtractEvidence(parsed)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := *parsed
	tmpl.Extensions, tmpl.ExtraExtensions = nil, []pkix.Extension{{Id: OIDAttestationEvidence, Value: envelope(t, bundle)}}
	key := minted.PrivateKey.(crypto.Signer)
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, key.Public(), key)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyProviderCertificate(context.Background(), r.provider(r.verifier), wrapped); !errors.Is(err, attestation.ErrEvidenceInvalid) {
		t.Errorf("envelope extension: %v, want ErrEvidenceInvalid", err)
	}
}

// TestFullRATLSHandshake runs a real TLS connection where the client only
// completes the handshake against attested servers.
func TestFullRATLSHandshake(t *testing.T) {
	r := newRig(t)
	serverCert := r.mint(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tlsLn := tls.NewListener(ln, &tls.Config{Certificates: []tls.Certificate{serverCert}})
	server := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("attested hello"))
	})}
	go func() { _ = server.Serve(tlsLn) }()
	t.Cleanup(func() { _ = server.Close() })

	client := &http.Client{Transport: &http.Transport{TLSClientConfig: ProviderClientConfig(r.provider(r.verifier))}}
	resp, err := client.Get("https://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatalf("RA-TLS GET: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "attested hello" {
		t.Errorf("body = %q", body)
	}

	// Against a non-attested server the handshake itself fails.
	plain := httptest.NewTLSServer(http.NotFoundHandler())
	t.Cleanup(plain.Close)
	if _, err := client.Get(plain.URL); err == nil {
		t.Error("handshake with unattested server succeeded")
	}
}

// TestPeerVerifierRepeatsAreProofHits: the callback keeps nothing, so
// every handshake's certificate reaches the verifier. After the first,
// each repeat is a report-proof hit there — no KDS round trip, no
// signature check, policy judged afresh — and a tampered certificate
// fails every time.
func TestPeerVerifierRepeatsAreProofHits(t *testing.T) {
	r := newRig(t)
	raw := r.mint(t).Certificate[0]
	verify := ProviderPeerVerifier(r.provider(r.verifier))

	if err := verify([][]byte{raw}, nil); err != nil {
		t.Fatalf("first handshake: %v", err)
	}
	cold, before := r.hits.Load(), r.verifier.Stats()
	for i := 0; i < 10; i++ {
		if err := verify([][]byte{raw}, nil); err != nil {
			t.Fatalf("repeat handshake %d: %v", i, err)
		}
	}
	if n := r.hits.Load(); n != cold {
		t.Errorf("repeat handshakes cost %d KDS round trips, want 0", n-cold)
	}
	if got := r.verifier.Stats().Sub(before); got.ReportHits != 10 || got.ReportsVerified != 0 {
		t.Errorf("ten repeats reached the verifier as %+v, want 10 report hits and no signature check", got)
	}

	// A single flipped bit in the certificate fails verification — on
	// every attempt (failures are never cached).
	tampered := append([]byte(nil), raw...)
	tampered[len(tampered)/2] ^= 1
	for i := 0; i < 2; i++ {
		if err := verify([][]byte{tampered}, nil); err == nil {
			t.Fatalf("attempt %d: tampered certificate accepted", i)
		}
	}
	// The genuine certificate still verifies.
	if err := verify([][]byte{raw}, nil); err != nil {
		t.Errorf("genuine certificate after tamper attempts: %v", err)
	}
}

// TestPeerVerifierPolicyRevocation: a registry revocation fails the very
// next handshake even though the verifier holds the report's proof.
func TestPeerVerifierPolicyRevocation(t *testing.T) {
	r := newRig(t)
	reg := r.votedRegistry(t)
	verifier := attest.NewVerifier(r.client, reg)
	cert := r.mint(t)
	verify := ProviderPeerVerifier(r.provider(verifier))

	if err := verify([][]byte{cert.Certificate[0]}, nil); err != nil {
		t.Fatalf("voted measurement rejected: %v", err)
	}
	if err := reg.Revoke(r.golden); err != nil {
		t.Fatal(err)
	}
	if err := verify([][]byte{cert.Certificate[0]}, nil); !errors.Is(err, attest.ErrRevoked) {
		t.Errorf("revoked measurement passed a handshake answered from the proof cache: %v", err)
	}
}

// TestPeerVerifierInvalidateCascades: attest.InvalidatePolicy bumps the
// revision the verifier's proof caches are fenced by, so the next
// handshake re-verifies in full.
func TestPeerVerifierInvalidateCascades(t *testing.T) {
	r := newRig(t)
	cert := r.mint(t)
	verify := ProviderPeerVerifier(r.provider(r.verifier))
	if err := verify([][]byte{cert.Certificate[0]}, nil); err != nil {
		t.Fatal(err)
	}
	cold := r.hits.Load()
	r.verifier.InvalidatePolicy()
	if err := verify([][]byte{cert.Certificate[0]}, nil); err != nil {
		t.Fatal(err)
	}
	if r.hits.Load() == cold {
		t.Error("handshake after InvalidatePolicy skipped re-verification")
	}
}

// TestSessionResumptionFencedByPolicyRevision: a session cache on
// ProviderClientConfig lets reconnects skip the certificate
// cryptography, but never policy and only within one policy revision —
// a resumed connection re-judges the saved evidence, and after
// InvalidatePolicy it pays the full verification again.
func TestSessionResumptionFencedByPolicyRevision(t *testing.T) {
	r := newRig(t)
	reg := r.votedRegistry(t)
	verifier := attest.NewVerifier(r.client, reg)

	serverCert := r.mint(t)
	ln, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{
		Certificates: []tls.Certificate{serverCert},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer func() { _ = conn.Close() }()
				// One byte of app data flushes the session ticket to
				// the client before we hang up.
				_, _ = conn.Write([]byte("x"))
			}(conn)
		}
	}()

	cfg := ProviderClientConfig(r.provider(verifier))
	cfg.ClientSessionCache = tls.NewLRUClientSessionCache(4)
	dial := func() (resumed bool, err error) {
		conn, err := tls.Dial("tcp", ln.Addr().String(), cfg)
		if err != nil {
			return false, err
		}
		defer func() { _ = conn.Close() }()
		one := make([]byte, 1)
		if _, err := io.ReadFull(conn, one); err != nil {
			return false, err
		}
		return conn.ConnectionState().DidResume, nil
	}

	if resumed, err := dial(); err != nil || resumed {
		t.Fatalf("first dial: resumed=%v err=%v", resumed, err)
	}
	resumed, err := dial()
	if err != nil {
		t.Fatalf("second dial: %v", err)
	}
	if !resumed {
		t.Skip("TLS stack did not resume; fence not exercisable here")
	}
	// The revision fence: a resumption inside the revision is a proof hit
	// in the verifier, one after a bump re-verifies the saved certificate
	// in full.
	warm := r.hits.Load()
	if _, err := dial(); err != nil {
		t.Fatalf("third dial: %v", err)
	}
	if n := r.hits.Load(); n != warm {
		t.Errorf("resumption inside the revision cost %d KDS round trips, want 0", n-warm)
	}
	verifier.InvalidatePolicy()
	if resumed, err := dial(); err != nil || !resumed {
		t.Fatalf("dial after InvalidatePolicy: resumed=%v err=%v", resumed, err)
	}
	if r.hits.Load() == warm {
		t.Error("resumption across a revision bump skipped re-verification")
	}

	// Revocation alone (no InvalidatePolicy) must already reject the
	// next connection: resumed connections re-judge policy in
	// VerifyConnection.
	if err := reg.Revoke(r.golden); err != nil {
		t.Fatal(err)
	}
	if _, err := dial(); err == nil {
		t.Error("revoked node accepted on resumed connection")
	}
	// A revision bump changes nothing about that: the next attempt
	// re-verifies in full and fails on the revoked measurement.
	verifier.InvalidatePolicy()
	if _, err := dial(); err == nil {
		t.Error("revoked node accepted after InvalidatePolicy")
	}
}

// TestPeerVerifierConcurrent hammers one callback from many goroutines
// (run under -race) with valid and tampered certificates interleaved.
func TestPeerVerifierConcurrent(t *testing.T) {
	r := newRig(t)
	raw := r.mint(t).Certificate[0]
	tampered := append([]byte(nil), raw...)
	tampered[10] ^= 1
	verify := ProviderPeerVerifier(r.provider(r.verifier))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := verify([][]byte{raw}, nil); err != nil {
					t.Errorf("valid cert: %v", err)
				}
				if err := verify([][]byte{tampered}, nil); err == nil {
					t.Error("tampered cert accepted")
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzExtractEvidence feeds hostile bytes to the one parser RA-TLS runs
// on a peer's certificate before anything is verified: the evidence
// extension. Whatever the bytes, extraction either fails under
// ErrEvidenceInvalid or yields a bundle whose encoding is stable across
// a decode/encode round trip; it never panics. And the fuzzed
// certificate carries no key, so VerifyProviderCertificate always
// refuses it under a root of the attestation taxonomy.
func FuzzExtractEvidence(f *testing.F) {
	r := newRig(f)
	provider := r.provider(r.verifier)
	parsed, err := x509.ParseCertificate(r.mint(f).Certificate[0])
	if err != nil {
		f.Fatal(err)
	}
	genuine, err := ExtractEvidence(parsed)
	if err != nil {
		f.Fatal(err)
	}
	encoded, err := genuine.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encoded)
	f.Add([]byte(`{"provider":"sev-snp"}`))
	f.Add([]byte(`{"provider":""}`))
	f.Add([]byte(`{"report":"AAAA","payload":""}`))
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, value []byte) {
		cert := &x509.Certificate{Extensions: []pkix.Extension{{Id: OIDAttestationEvidence, Value: value}}}
		_, err := VerifyProviderCertificate(context.Background(), provider, cert)
		if err == nil {
			t.Fatal("a certificate without a key verified")
		}
		if !errors.Is(err, attestation.ErrEvidenceInvalid) && !errors.Is(err, attestation.ErrPolicyRejected) &&
			!errors.Is(err, attestation.ErrEvidenceExpired) && !errors.Is(err, attestation.ErrKDSUnavailable) {
			t.Fatalf("unclassified refusal: %v", err)
		}
		b, err := ExtractEvidence(cert)
		if err != nil {
			if !errors.Is(err, attestation.ErrEvidenceInvalid) {
				t.Fatalf("unclassified failure: %v", err)
			}
			return
		}
		encoded, err := b.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := attest.DecodeBundle(encoded)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if stable, err := again.Encode(); err != nil || !bytes.Equal(stable, encoded) {
			t.Fatalf("encoding is not stable across a round trip (%v):\n%s\n%s", err, encoded, stable)
		}
	})
}
