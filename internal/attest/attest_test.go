package attest

import (
	"context"
	"crypto/x509"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"revelio/internal/amdsp"
	"revelio/internal/kds"
	"revelio/internal/measure"
	"revelio/internal/registry"
	"revelio/internal/sev"
)

type rig struct {
	mfr    *amdsp.Manufacturer
	sp     *amdsp.SecureProcessor
	guest  *amdsp.GuestChannel
	client *kds.Client
	hits   atomic.Int64 // KDS round trips observed
}

func newRig(t *testing.T) *rig {
	t.Helper()
	mfr, err := amdsp.NewManufacturer([]byte("attest-test"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := mfr.MintProcessor([]byte("chip"), 2)
	if err != nil {
		t.Fatal(err)
	}
	h := sp.LaunchStart(0, 0)
	if err := sp.LaunchUpdate(h, measure.PageNormal, 0, []byte("fw"), "ovmf"); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.LaunchFinish(h); err != nil {
		t.Fatal(err)
	}
	guest, err := sp.GuestChannel(h)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{mfr: mfr, sp: sp, guest: guest}
	kdsHandler := kds.NewServer(mfr)
	server := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.hits.Add(1)
		kdsHandler.ServeHTTP(w, req)
	}))
	t.Cleanup(server.Close)
	r.client = kds.NewClient(server.URL, nil)
	return r
}

func (r *rig) report(t *testing.T, data sev.ReportData) *sev.Report {
	t.Helper()
	rep, err := r.guest.Report(data)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestVerifyReportHappyPath(t *testing.T) {
	r := newRig(t)
	rep := r.report(t, sev.ReportData{1})
	v := NewVerifier(r.client, NewStaticGolden(rep.Measurement))
	res, err := v.VerifyReport(context.Background(), rep)
	if err != nil {
		t.Fatalf("VerifyReport: %v", err)
	}
	if res.Report != rep || res.VCEK == nil {
		t.Error("incomplete result")
	}
}

func TestVerifyRawRoundTrip(t *testing.T) {
	r := newRig(t)
	rep := r.report(t, sev.ReportData{2})
	raw, err := rep.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(r.client, NewStaticGolden(rep.Measurement))
	if _, err := v.VerifyRaw(context.Background(), raw); err != nil {
		t.Fatalf("VerifyRaw: %v", err)
	}
	if _, err := v.VerifyRaw(context.Background(), []byte("junk")); !errors.Is(err, sev.ErrBadReport) {
		t.Errorf("junk: err = %v, want ErrBadReport", err)
	}
}

func TestUntrustedMeasurementRejected(t *testing.T) {
	r := newRig(t)
	rep := r.report(t, sev.ReportData{})
	var other measure.Measurement
	other[0] = 0xEE
	v := NewVerifier(r.client, NewStaticGolden(other))
	if _, err := v.VerifyReport(context.Background(), rep); !errors.Is(err, ErrUntrustedMeasurement) {
		t.Errorf("err = %v, want ErrUntrustedMeasurement", err)
	}
}

func TestNilPolicySkipsMeasurementCheck(t *testing.T) {
	r := newRig(t)
	rep := r.report(t, sev.ReportData{})
	v := NewVerifier(r.client, nil)
	if _, err := v.VerifyReport(context.Background(), rep); err != nil {
		t.Errorf("nil policy: %v", err)
	}
}

func TestForgedSignatureRejected(t *testing.T) {
	r := newRig(t)
	rep := r.report(t, sev.ReportData{})
	rep.Measurement[0] ^= 1 // attacker edits the measurement post-signing
	v := NewVerifier(r.client, nil)
	if _, err := v.VerifyReport(context.Background(), rep); !errors.Is(err, sev.ErrBadSignature) {
		t.Errorf("err = %v, want ErrBadSignature", err)
	}
}

// TestImpersonatorWithValidReport is §5.3.1: an authentic report from a
// chip outside the allow-list is rejected.
func TestImpersonatorWithValidReport(t *testing.T) {
	r := newRig(t)
	impostor, err := r.mfr.MintProcessor([]byte("impostor-chip"), 2)
	if err != nil {
		t.Fatal(err)
	}
	h := impostor.LaunchStart(0, 0)
	if err := impostor.LaunchUpdate(h, measure.PageNormal, 0, []byte("fw"), "ovmf"); err != nil {
		t.Fatal(err)
	}
	if _, err := impostor.LaunchFinish(h); err != nil {
		t.Fatal(err)
	}
	g, err := impostor.GuestChannel(h)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Report(sev.ReportData{})
	if err != nil {
		t.Fatal(err)
	}

	v := NewVerifier(r.client, nil, WithChipAllowList(r.sp.ChipID()))
	if _, err := v.VerifyReport(context.Background(), rep); !errors.Is(err, ErrChipNotAllowed) {
		t.Errorf("err = %v, want ErrChipNotAllowed", err)
	}
	// The legitimate chip still passes.
	legit := r.report(t, sev.ReportData{})
	if _, err := v.VerifyReport(context.Background(), legit); err != nil {
		t.Errorf("legit chip: %v", err)
	}
}

func TestChipIDSpoofRejected(t *testing.T) {
	// A report claiming a different ChipID fails: either the KDS has no
	// cert for it, or the signature check fails against the real chip's
	// VCEK.
	r := newRig(t)
	rep := r.report(t, sev.ReportData{})
	rep.ChipID[0] ^= 1
	v := NewVerifier(r.client, nil)
	if _, err := v.VerifyReport(context.Background(), rep); err == nil {
		t.Error("spoofed chip id verified")
	}
}

func TestRegistryAsTrustPolicy(t *testing.T) {
	r := newRig(t)
	rep := r.report(t, sev.ReportData{})
	reg := registry.New(1)
	reg.AddVoter("dao")
	v := NewVerifier(r.client, reg)

	if _, err := v.VerifyReport(context.Background(), rep); !errors.Is(err, ErrUntrustedMeasurement) {
		t.Fatalf("unvoted measurement accepted: %v", err)
	}
	if err := reg.Propose(rep.Measurement, "v1"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Vote("dao", rep.Measurement); err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyReport(context.Background(), rep); err != nil {
		t.Errorf("voted measurement rejected: %v", err)
	}
	// Rollback: revoked → rejected again.
	if err := reg.Revoke(rep.Measurement); err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyReport(context.Background(), rep); !errors.Is(err, ErrRevoked) {
		t.Errorf("revoked measurement accepted: %v", err)
	}
}

func TestBundleBinding(t *testing.T) {
	r := newRig(t)
	payload := []byte("public-key-der-bytes")
	rep := r.report(t, sev.HashOf(payload))
	bundle, err := NewBundle(rep, payload)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := bundle.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBundle(enc)
	if err != nil {
		t.Fatal(err)
	}

	v := NewVerifier(r.client, nil)
	if _, err := v.VerifyEvidence(context.Background(), back); err != nil {
		t.Fatalf("VerifyEvidence: %v", err)
	}

	// Swapped payload breaks the binding.
	back.Payload = []byte("attacker-key")
	if _, err := v.VerifyEvidence(context.Background(), back); !errors.Is(err, ErrReportDataMismatch) {
		t.Errorf("err = %v, want ErrReportDataMismatch", err)
	}

	// Corrupt report bytes are rejected structurally.
	back.ReportRaw = []byte("junk")
	if _, err := v.VerifyEvidence(context.Background(), back); !errors.Is(err, sev.ErrBadReport) {
		t.Errorf("err = %v, want ErrBadReport", err)
	}

	if _, err := DecodeBundle([]byte("{")); err == nil {
		t.Error("bad JSON bundle accepted")
	}
}

// TestNonceBoundBinding: a challenged bundle verifies only under the
// nonce it answers, and the two bindings never stand in for each other
// (sev.HashOfWithNonce is domain-separated from sev.HashOf).
func TestNonceBoundBinding(t *testing.T) {
	r := newRig(t)
	ctx := context.Background()
	payload, nonce := []byte("tls-key-der"), []byte("challenge-0001")
	bundleOver := func(data sev.ReportData) *Bundle {
		b, err := NewBundle(r.report(t, data), payload)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fresh := bundleOver(sev.HashOfWithNonce(payload, nonce))
	plain := bundleOver(sev.HashOf(payload))

	v := NewVerifier(r.client, nil)
	if _, err := v.VerifyNonceBound(ctx, fresh, nonce); err != nil {
		t.Fatalf("VerifyNonceBound: %v", err)
	}
	for name, verify := range map[string]func() error{
		"other nonce": func() error {
			_, err := v.VerifyNonceBound(ctx, fresh, []byte("challenge-0002"))
			return err
		},
		"unchallenged bundle": func() error { _, err := v.VerifyNonceBound(ctx, plain, nonce); return err },
		"empty nonce":         func() error { _, err := v.VerifyNonceBound(ctx, plain, nil); return err },
		"challenged bundle as plain": func() error {
			_, err := v.VerifyEvidence(ctx, fresh)
			return err
		},
	} {
		if err := verify(); !errors.Is(err, ErrReportDataMismatch) {
			t.Errorf("%s: err = %v, want ErrReportDataMismatch", name, err)
		}
	}
}

func TestStaticGoldenMultiple(t *testing.T) {
	var a, b, c measure.Measurement
	a[0], b[0], c[0] = 1, 2, 3
	g := NewStaticGolden(a, b)
	if !g.IsTrusted(a) || !g.IsTrusted(b) || g.IsTrusted(c) {
		t.Error("StaticGolden membership wrong")
	}
}

// TestVerifyReportCacheSkipsKDS: re-verifying a proven report touches
// the KDS zero times — the report-digest cache short-circuits the whole
// pipeline.
func TestVerifyReportCacheSkipsKDS(t *testing.T) {
	r := newRig(t)
	rep := r.report(t, sev.ReportData{9})
	v := NewVerifier(r.client, NewStaticGolden(rep.Measurement))
	ctx := context.Background()

	if _, err := v.VerifyReport(ctx, rep); err != nil {
		t.Fatal(err)
	}
	cold := r.hits.Load()
	for i := 0; i < 5; i++ {
		res, err := v.VerifyReport(ctx, rep)
		if err != nil {
			t.Fatalf("cached verify %d: %v", i, err)
		}
		if res.Report != rep || res.VCEK == nil {
			t.Fatal("cached verify returned incomplete result")
		}
	}
	if n := r.hits.Load(); n != cold {
		t.Errorf("cached verifications cost %d KDS round trips, want 0", n-cold)
	}
}

// TestChainProofSkipsChainWalkForFreshReports: a *fresh* report (new
// REPORT_DATA, so a cache miss on the report digest) under an
// already-proven VCEK pays only the signature check — observable as the
// warm path needing KDS traffic only if the client cache is cold.
func TestChainProofSkipsChainWalkForFreshReports(t *testing.T) {
	r := newRig(t)
	r.client.SetCaching(true) // warm-VCEK scenario
	v := NewVerifier(r.client, nil)
	ctx := context.Background()

	if _, err := v.VerifyReport(ctx, r.report(t, sev.ReportData{1})); err != nil {
		t.Fatal(err)
	}
	warm := r.hits.Load()
	// Ten fresh reports: every one is a report-cache miss but a
	// chain-proof and client-cache hit — zero further KDS round trips.
	for i := 2; i < 12; i++ {
		if _, err := v.VerifyReport(ctx, r.report(t, sev.ReportData{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.hits.Load(); n != warm {
		t.Errorf("fresh reports under warm caches cost %d KDS round trips, want 0", n-warm)
	}
}

// TestTamperedReportMissesCacheAndFailsClosed: after a report is proven
// and cached, flipping any bit produces a different digest, misses the
// cache, and fails full verification — through every cache layer.
func TestTamperedReportMissesCacheAndFailsClosed(t *testing.T) {
	r := newRig(t)
	rep := r.report(t, sev.ReportData{4})
	v := NewVerifier(r.client, nil)
	ctx := context.Background()

	if _, err := v.VerifyReport(ctx, rep); err != nil {
		t.Fatal(err)
	}

	tampered := *rep
	tampered.Measurement[0] ^= 1
	if _, err := v.VerifyReport(ctx, &tampered); !errors.Is(err, sev.ErrBadSignature) {
		t.Errorf("tampered measurement: err = %v, want ErrBadSignature", err)
	}
	sigTampered := *rep
	sigTampered.Signature = append([]byte(nil), rep.Signature...)
	sigTampered.Signature[0] ^= 1
	if _, err := v.VerifyReport(ctx, &sigTampered); err == nil {
		t.Error("tampered signature verified")
	}
	// The original still verifies (and from cache).
	if _, err := v.VerifyReport(ctx, rep); err != nil {
		t.Errorf("original report after tamper attempts: %v", err)
	}
}

// TestFailedVerificationNeverCached: a rejected report is re-verified in
// full on every attempt (KDS traffic every time), and keeps failing.
func TestFailedVerificationNeverCached(t *testing.T) {
	r := newRig(t)
	rep := r.report(t, sev.ReportData{5})
	rep.ChipID[0] ^= 1 // unknown chip: the VCEK fetch 404s
	v := NewVerifier(r.client, nil)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		before := r.hits.Load()
		if _, err := v.VerifyReport(ctx, rep); err == nil {
			t.Fatalf("attempt %d: tampered report verified", i)
		}
		if r.hits.Load() == before {
			t.Errorf("attempt %d skipped the KDS; failures must not be cached", i)
		}
	}
}

// TestPolicyRecheckedOnCacheHit: revoking a measurement in the registry
// fails a report whose cryptographic proof is still cached — policy is
// judged on every hit, with no InvalidatePolicy needed.
func TestPolicyRecheckedOnCacheHit(t *testing.T) {
	r := newRig(t)
	rep := r.report(t, sev.ReportData{6})
	reg := registry.New(1)
	reg.AddVoter("dao")
	if err := reg.Propose(rep.Measurement, "v1"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Vote("dao", rep.Measurement); err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(r.client, reg)
	ctx := context.Background()

	if _, err := v.VerifyReport(ctx, rep); err != nil {
		t.Fatal(err)
	}
	cold := r.hits.Load()
	if err := reg.Revoke(rep.Measurement); err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyReport(ctx, rep); !errors.Is(err, ErrRevoked) {
		t.Errorf("revoked measurement served from cache: %v", err)
	}
	if r.hits.Load() != cold {
		t.Error("policy recheck unexpectedly re-ran the crypto pipeline")
	}
}

// TestInvalidatePolicyDropsProofs: after invalidation the next verify
// re-runs the full pipeline (observable as fresh KDS traffic).
func TestInvalidatePolicyDropsProofs(t *testing.T) {
	r := newRig(t)
	rep := r.report(t, sev.ReportData{7})
	v := NewVerifier(r.client, nil)
	ctx := context.Background()

	if _, err := v.VerifyReport(ctx, rep); err != nil {
		t.Fatal(err)
	}
	cold := r.hits.Load()
	v.InvalidatePolicy()
	if _, err := v.VerifyReport(ctx, rep); err != nil {
		t.Fatal(err)
	}
	if r.hits.Load() == cold {
		t.Error("verification after InvalidatePolicy did not re-run the pipeline")
	}
}

// TestProofExpiresWithVCEKValidity: a cached proof dies with its VCEK's
// NotAfter — once the verifier's clock passes it, the cached fast path
// must not keep validating what the full chain walk would now reject.
func TestProofExpiresWithVCEKValidity(t *testing.T) {
	r := newRig(t)
	rep := r.report(t, sev.ReportData{11})
	var (
		mu  sync.Mutex
		now = time.Now()
	)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	v := NewVerifier(r.client, nil, WithClock(clock))
	ctx := context.Background()

	res, err := v.VerifyReport(ctx, rep)
	if err != nil {
		t.Fatal(err)
	}
	// Jump the clock past the VCEK's validity: both the cached and the
	// full path must reject.
	mu.Lock()
	now = res.VCEK.NotAfter.Add(time.Hour)
	mu.Unlock()
	if _, err := v.VerifyReport(ctx, rep); !errors.Is(err, ErrEvidenceExpired) {
		t.Errorf("expired VCEK: err = %v, want ErrEvidenceExpired", err)
	}
}

// TestProofHoldsOnlyFromNotBefore: a proof answers only inside the
// validity windows of the chain that made it, at both ends. With the
// verifier's clock moved to an hour before the VCEK's NotBefore, the
// proven report and a fresh report under the proven VCEK are refused as
// a verifier with empty caches refuses them, ErrEvidenceExpired, and no
// proof answers; with the clock back, both verify again.
func TestProofHoldsOnlyFromNotBefore(t *testing.T) {
	r := newRig(t)
	var (
		mu  sync.Mutex
		now = time.Now()
	)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	setClock := func(t time.Time) {
		mu.Lock()
		defer mu.Unlock()
		now = t
	}
	v := NewVerifier(r.client, nil, WithClock(clock))
	ctx := context.Background()
	proven := r.report(t, sev.ReportData{15})
	res, err := v.VerifyReport(ctx, proven)
	if err != nil {
		t.Fatal(err)
	}
	reports := map[string]*sev.Report{"proven report": proven, "fresh report under the proven VCEK": r.report(t, sev.ReportData{16})}

	restore := clock()
	setClock(res.VCEK.NotBefore.Add(-time.Hour))
	before := v.Stats()
	for name, rep := range reports {
		if _, err := NewVerifier(r.client, nil, WithClock(clock)).VerifyReport(ctx, rep); !errors.Is(err, ErrEvidenceExpired) {
			t.Fatalf("%s, empty caches: err = %v, want ErrEvidenceExpired", name, err)
		}
		if _, err := v.VerifyReport(ctx, rep); !errors.Is(err, ErrEvidenceExpired) {
			t.Errorf("%s before the VCEK's NotBefore: err = %v, want ErrEvidenceExpired", name, err)
		}
	}
	if got := v.Stats().Sub(before); got.ReportHits != 0 || got.ChainHits != 0 {
		t.Errorf("a proof answered before the VCEK's NotBefore: %+v", got)
	}

	setClock(restore)
	for name, rep := range reports {
		if _, err := v.VerifyReport(ctx, rep); err != nil {
			t.Errorf("%s, clock restored: %v", name, err)
		}
	}
}

// TestWarmChainProofSkipsCertChainFetch: with the chain proof warm, a
// fresh report on a *cache-disabled* KDS client fetches only the VCEK —
// as every verification does: the ASK and ARK are carried, never fetched.
func TestWarmChainProofSkipsCertChainFetch(t *testing.T) {
	r := newRig(t) // client caching off
	v := NewVerifier(r.client, nil)
	ctx := context.Background()

	if _, err := v.VerifyReport(ctx, r.report(t, sev.ReportData{12})); err != nil {
		t.Fatal(err)
	}
	before := r.hits.Load()
	if _, err := v.VerifyReport(ctx, r.report(t, sev.ReportData{13})); err != nil {
		t.Fatal(err)
	}
	if n := r.hits.Load() - before; n != 1 {
		t.Errorf("fresh report under proven chain cost %d KDS round trips, want 1 (VCEK only)", n)
	}
}

// burstSource is a caching KDS client whose VCEK fetch closes all once
// every caller of a burst has entered it.
type burstSource struct {
	*kds.Client
	callers, entered atomic.Int64
	all              chan struct{}
}

func (s *burstSource) VCEK(ctx context.Context, chipID sev.ChipID, tcb uint64) (*x509.Certificate, error) {
	if s.entered.Add(1) == s.callers.Load() {
		close(s.all)
	}
	return s.Client.VCEK(ctx, chipID, tcb)
}

// TestColdBurstCostsOneVCEKFetch: 16 concurrent cold verifications through
// one verifier over a caching KDS client cost exactly one KDS round trip,
// the VCEK's, and no cert_chain round trip. The KDS holds the VCEK request
// until all 16 callers are inside the fetch, so none of them finds the
// certificate cached: only the client's per-certificate flight keeps the
// herd to one round trip.
func TestColdBurstCostsOneVCEKFetch(t *testing.T) {
	const callers = 16
	r := newRig(t)
	src := &burstSource{all: make(chan struct{})}
	src.callers.Store(callers)
	var vcekTrips, chainTrips atomic.Int64
	kdsHandler := kds.NewServer(r.mfr)
	server := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == kds.CertChainPath {
			chainTrips.Add(1)
			kdsHandler.ServeHTTP(w, req)
			return
		}
		vcekTrips.Add(1)
		select {
		case <-src.all:
			kdsHandler.ServeHTTP(w, req)
		case <-time.After(30 * time.Second):
			http.Error(w, "burst never assembled", http.StatusServiceUnavailable)
		}
	}))
	t.Cleanup(server.Close)
	src.Client = kds.NewClient(server.URL, nil)
	src.SetCaching(true)

	rep := r.report(t, sev.ReportData{14})
	v := NewVerifier(src, NewStaticGolden(rep.Measurement))
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := v.VerifyReport(context.Background(), rep); err != nil {
				t.Errorf("VerifyReport: %v", err)
			}
		}()
	}
	wg.Wait()
	if vcek, chain := vcekTrips.Load(), chainTrips.Load(); vcek != 1 || chain != 0 {
		t.Errorf("a cold burst of %d cost %d VCEK and %d cert_chain round trips, want 1 and 0", callers, vcek, chain)
	}
}

// TestVerifyReportConcurrent hammers one verifier from many goroutines
// (run under -race): same report, fresh reports, and a tampered report
// interleaved; the caches must stay correct and fail-closed throughout.
func TestVerifyReportConcurrent(t *testing.T) {
	r := newRig(t)
	shared := r.report(t, sev.ReportData{8})
	bad := *shared
	bad.Measurement[5] ^= 1
	v := NewVerifier(r.client, NewStaticGolden(shared.Measurement))
	ctx := context.Background()

	fresh := make([]*sev.Report, 8)
	for i := range fresh {
		fresh[i] = r.report(t, sev.ReportData{16: byte(i + 1)})
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := v.VerifyReport(ctx, shared); err != nil {
					t.Errorf("shared report: %v", err)
				}
				if _, err := v.VerifyReport(ctx, fresh[g]); err != nil {
					t.Errorf("fresh report: %v", err)
				}
				if _, err := v.VerifyReport(ctx, &bad); err == nil {
					t.Error("tampered report verified")
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWithoutReportCache preserves the pre-fast-path behaviour: every
// verify pays full KDS traffic.
func TestWithoutReportCache(t *testing.T) {
	r := newRig(t)
	rep := r.report(t, sev.ReportData{10})
	v := NewVerifier(r.client, nil, WithoutReportCache())
	ctx := context.Background()

	if _, err := v.VerifyReport(ctx, rep); err != nil {
		t.Fatal(err)
	}
	cold := r.hits.Load()
	if _, err := v.VerifyReport(ctx, rep); err != nil {
		t.Fatal(err)
	}
	if r.hits.Load() == cold {
		t.Error("verifier without report cache skipped KDS traffic")
	}
}

// TestTCBFloor: a verifier with a raised TCB floor rejects reports from
// platforms running older SNP firmware (platform-level rollback defence).
func TestTCBFloor(t *testing.T) {
	r := newRig(t) // chip TCB = 2
	rep := r.report(t, sev.ReportData{})

	current := NewVerifier(r.client, nil, WithMinTCB(2))
	if _, err := current.VerifyReport(context.Background(), rep); err != nil {
		t.Errorf("TCB at floor rejected: %v", err)
	}
	raised := NewVerifier(r.client, nil, WithMinTCB(3))
	if _, err := raised.VerifyReport(context.Background(), rep); !errors.Is(err, ErrTCBTooOld) {
		t.Errorf("err = %v, want ErrTCBTooOld", err)
	}
}
