package kds

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

	"revelio/attestation"
	"revelio/internal/amdsp"
	"revelio/internal/cache"
	"revelio/internal/sev"
)

type testEnv struct {
	mfr    *amdsp.Manufacturer
	sp     *amdsp.SecureProcessor
	server *httptest.Server
	hits   atomic.Int64
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	mfr, err := amdsp.NewManufacturer([]byte("kds-test-seed"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := mfr.MintProcessor([]byte("chip"), 9)
	if err != nil {
		t.Fatal(err)
	}
	env := &testEnv{mfr: mfr, sp: sp}
	kdsHandler := NewServer(mfr)
	env.server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		env.hits.Add(1)
		kdsHandler.ServeHTTP(w, r)
	}))
	t.Cleanup(env.server.Close)
	return env
}

func TestCertChainFetch(t *testing.T) {
	env := newTestEnv(t)
	c := NewClient(env.server.URL, nil)
	ask, ark, err := c.CertChain(context.Background())
	if err != nil {
		t.Fatalf("CertChain: %v", err)
	}
	if ask.Subject.CommonName != "ASK-SIM" || ark.Subject.CommonName != "ARK-SIM" {
		t.Errorf("unexpected chain subjects: %q, %q",
			ask.Subject.CommonName, ark.Subject.CommonName)
	}
	// ASK must be signed by ARK.
	if err := ask.CheckSignatureFrom(ark); err != nil {
		t.Errorf("ASK not signed by ARK: %v", err)
	}
}

func TestVCEKFetchAndChainValidation(t *testing.T) {
	env := newTestEnv(t)
	c := NewClient(env.server.URL, nil)
	ctx := context.Background()

	vcek, err := c.VCEK(ctx, env.sp.ChipID(), env.sp.TCB())
	if err != nil {
		t.Fatalf("VCEK: %v", err)
	}
	ask, ark, err := c.CertChain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	roots := x509.NewCertPool()
	roots.AddCert(ark)
	inters := x509.NewCertPool()
	inters.AddCert(ask)
	if _, err := vcek.Verify(x509.VerifyOptions{
		Roots:         roots,
		Intermediates: inters,
		CurrentTime:   ark.NotBefore.AddDate(1, 0, 0),
		KeyUsages:     []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	}); err != nil {
		t.Errorf("chain validation: %v", err)
	}
	chipID, tcb, err := sev.VCEKIdentity(vcek)
	if err != nil {
		t.Fatal(err)
	}
	if chipID != env.sp.ChipID() || tcb != env.sp.TCB() {
		t.Error("fetched VCEK identity mismatch")
	}
}

func TestVCEKUnknownChip(t *testing.T) {
	env := newTestEnv(t)
	c := NewClient(env.server.URL, nil)
	var bogus sev.ChipID
	bogus[5] = 1
	if _, err := c.VCEK(context.Background(), bogus, 9); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown chip: err = %v, want ErrNotFound", err)
	}
}

// faultyIssuer is a manufacturer whose VCEK signing fails for a reason
// other than an unknown chip.
type faultyIssuer struct{ *amdsp.Manufacturer }

func (faultyIssuer) VCEKCertDER(sev.ChipID, uint64) ([]byte, error) {
	return nil, errors.New("signing hardware fault")
}

// TestVCEKIssuerFault: an issuer that fails for any reason but an
// unknown chip answers 500, which the client reports as the KDS being
// unavailable, not as evidence naming a chip with no VCEK.
func TestVCEKIssuerFault(t *testing.T) {
	env := newTestEnv(t)
	server := httptest.NewServer(NewServer(faultyIssuer{env.mfr}))
	t.Cleanup(server.Close)
	_, err := NewClient(server.URL, nil).VCEK(context.Background(), env.sp.ChipID(), env.sp.TCB())
	if !errors.Is(err, attestation.ErrKDSUnavailable) || errors.Is(err, attestation.ErrChainInvalid) {
		t.Errorf("issuer fault: err = %v, want ErrKDSUnavailable and not ErrChainInvalid", err)
	}
}

func TestVCEKCaching(t *testing.T) {
	env := newTestEnv(t)
	c := NewClient(env.server.URL, nil)
	c.SetCaching(true)
	ctx := context.Background()

	if _, err := c.VCEK(ctx, env.sp.ChipID(), env.sp.TCB()); err != nil {
		t.Fatal(err)
	}
	cold := env.hits.Load()
	for i := 0; i < 5; i++ {
		if _, err := c.VCEK(ctx, env.sp.ChipID(), env.sp.TCB()); err != nil {
			t.Fatal(err)
		}
	}
	if env.hits.Load() != cold {
		t.Errorf("cache miss: %d extra hits", env.hits.Load()-cold)
	}
	// Different TCB must bypass the cache entry.
	if _, err := c.VCEK(ctx, env.sp.ChipID(), env.sp.TCB()+1); err != nil {
		t.Fatal(err)
	}
	if env.hits.Load() == cold {
		t.Error("different TCB served from cache")
	}
	// Disabling caching clears state.
	c.SetCaching(false)
	before := env.hits.Load()
	if _, err := c.VCEK(ctx, env.sp.ChipID(), env.sp.TCB()); err != nil {
		t.Fatal(err)
	}
	if env.hits.Load() == before {
		t.Error("disabled cache still served entries")
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	env := newTestEnv(t)
	cases := []struct {
		path string
		want int
	}{
		{VCEKPathPrefix + "nothex?tcb=1", http.StatusBadRequest},
		{VCEKPathPrefix + "abcd?tcb=1", http.StatusBadRequest}, // short chip id
		{VCEKPathPrefix, http.StatusNotFound},
	}
	for _, tt := range cases {
		resp, err := http.Get(env.server.URL + tt.path)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != tt.want {
			t.Errorf("GET %s: status %d, want %d", tt.path, resp.StatusCode, tt.want)
		}
	}
	// Missing tcb parameter.
	chipHex := make([]byte, sev.ChipIDSize*2)
	for i := range chipHex {
		chipHex[i] = 'a'
	}
	resp, err := http.Get(env.server.URL + VCEKPathPrefix + string(chipHex))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing tcb: status %d, want 400", resp.StatusCode)
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", nil) // nothing listens here
	if _, _, err := c.CertChain(context.Background()); err == nil {
		t.Error("CertChain against dead server succeeded")
	}
}

// TestVCEKCacheServesParsedCertificate: a hit returns the same parsed
// *x509.Certificate, proving no re-parse happens on the hot path.
func TestVCEKCacheServesParsedCertificate(t *testing.T) {
	env := newTestEnv(t)
	c := NewClient(env.server.URL, nil)
	c.SetCaching(true)
	ctx := context.Background()

	first, err := c.VCEK(ctx, env.sp.ChipID(), env.sp.TCB())
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.VCEK(ctx, env.sp.ChipID(), env.sp.TCB())
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("cache hit re-parsed the certificate (distinct pointers)")
	}
}

// TestCertChainParsedPairCached: with caching on, repeated CertChain
// calls cost neither a round trip nor a re-parse.
func TestCertChainParsedPairCached(t *testing.T) {
	env := newTestEnv(t)
	c := NewClient(env.server.URL, nil)
	c.SetCaching(true)
	ctx := context.Background()

	ask1, ark1, err := c.CertChain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	after := env.hits.Load()
	ask2, ark2, err := c.CertChain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if env.hits.Load() != after {
		t.Errorf("cached CertChain still fetched: %d extra hits", env.hits.Load()-after)
	}
	if ask1 != ask2 || ark1 != ark2 {
		t.Error("cache hit re-parsed the chain (distinct pointers)")
	}
}

// TestVCEKSingleflightCollapsesConcurrentMisses: N goroutines racing on
// the same cold (chip, TCB) produce exactly one HTTP round trip.
func TestVCEKSingleflightCollapsesConcurrentMisses(t *testing.T) {
	env := newTestEnv(t)
	release := make(chan struct{})
	kdsHandler := NewServer(env.mfr)
	blocking := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		env.hits.Add(1)
		kdsHandler.ServeHTTP(w, r)
	}))
	t.Cleanup(blocking.Close)
	c := NewClient(blocking.URL, nil)
	c.SetCaching(true)
	ctx := context.Background()

	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.VCEK(ctx, env.sp.ChipID(), env.sp.TCB()); err != nil {
				t.Errorf("VCEK: %v", err)
			}
		}()
	}
	// All callers are launched while the one allowed request is held at
	// the server; anyone who missed the flight would issue a second
	// request, which the hit count below exposes.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := env.hits.Load(); n != 1 {
		t.Errorf("%d KDS round trips for %d concurrent cold misses, want 1", n, callers)
	}
}

// TestVCEKConcurrentHammer drives the cache from many goroutines (run
// under -race) and checks the server was only touched for the first miss.
func TestVCEKConcurrentHammer(t *testing.T) {
	env := newTestEnv(t)
	c := NewClient(env.server.URL, nil)
	c.SetCaching(true)
	ctx := context.Background()

	// Prime sequentially so the hammer phase is all hits.
	if _, err := c.VCEK(ctx, env.sp.ChipID(), env.sp.TCB()); err != nil {
		t.Fatal(err)
	}
	primed := env.hits.Load()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := c.VCEK(ctx, env.sp.ChipID(), env.sp.TCB()); err != nil {
					t.Errorf("VCEK: %v", err)
				}
				if _, _, err := c.CertChain(ctx); err != nil {
					t.Errorf("CertChain: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	// The chain may cost one fetch (if not yet cached); the VCEK none.
	if n := env.hits.Load(); n > primed+1 {
		t.Errorf("hammer phase cost %d extra round trips", n-primed)
	}
}

// TestVCEKTTLExpiry: a cached VCEK past its TTL is re-fetched.
func TestVCEKTTLExpiry(t *testing.T) {
	env := newTestEnv(t)
	now := time.Now()
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	c := NewClient(env.server.URL, nil, WithClock(clock))
	c.SetCaching(true)
	ctx := context.Background()

	if _, err := c.VCEK(ctx, env.sp.ChipID(), env.sp.TCB()); err != nil {
		t.Fatal(err)
	}
	cold := env.hits.Load()
	if _, err := c.VCEK(ctx, env.sp.ChipID(), env.sp.TCB()); err != nil {
		t.Fatal(err)
	}
	if env.hits.Load() != cold {
		t.Error("within TTL: cache missed")
	}
	mu.Lock()
	now = now.Add(vcekTTL + time.Hour)
	mu.Unlock()
	if _, err := c.VCEK(ctx, env.sp.ChipID(), env.sp.TCB()); err != nil {
		t.Fatal(err)
	}
	if env.hits.Load() == cold {
		t.Error("expired entry still served from cache")
	}
}

// TestCertChainTTLExpiry: the cached ASK/ARK pair is fenced like a
// VCEK. Past vcekTTL it is fetched again, and SetCaching(false) clears
// it with everything else.
func TestCertChainTTLExpiry(t *testing.T) {
	env := newTestEnv(t)
	now := time.Now()
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	c := NewClient(env.server.URL, nil, WithClock(clock))
	c.SetCaching(true)
	ctx := context.Background()
	fetches := func() int64 {
		t.Helper()
		before := env.hits.Load()
		if _, _, err := c.CertChain(ctx); err != nil {
			t.Fatal(err)
		}
		return env.hits.Load() - before
	}

	if n := fetches(); n != 1 {
		t.Fatalf("cold chain: %d round trips, want 1", n)
	}
	if n := fetches(); n != 0 {
		t.Errorf("within TTL: %d round trips, want 0", n)
	}
	mu.Lock()
	now = now.Add(vcekTTL + time.Second)
	mu.Unlock()
	if n := fetches(); n != 1 {
		t.Errorf("past TTL: %d round trips, want 1", n)
	}
	if n := fetches(); n != 0 {
		t.Errorf("refetched pair not cached: %d round trips", n)
	}
	c.SetCaching(false)
	c.SetCaching(true)
	if n := fetches(); n != 1 {
		t.Errorf("after SetCaching(false): %d round trips, want 1", n)
	}
}

// TestVCEKHitAllocs: a VCEK cache hit allocates only its key (the hex
// encoding, its string and the concatenation), and a chain hit nothing:
// the URL is built on a miss alone.
func TestVCEKHitAllocs(t *testing.T) {
	env := newTestEnv(t)
	c := NewClient(env.server.URL, nil)
	c.SetCaching(true)
	ctx := context.Background()
	if _, err := c.VCEK(ctx, env.sp.ChipID(), env.sp.TCB()); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.VCEK(ctx, env.sp.ChipID(), env.sp.TCB()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("VCEK cache hit: %v allocs, want at most 3", allocs)
	}
	if _, _, err := c.CertChain(ctx); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _, _ = c.CertChain(ctx) }); allocs != 0 {
		t.Errorf("CertChain cache hit: %v allocs, want 0", allocs)
	}
}

// TestVCEKFailureNotCached: a failed fetch is re-attempted — negative
// results never stick.
func TestVCEKFailureNotCached(t *testing.T) {
	env := newTestEnv(t)
	c := NewClient(env.server.URL, nil)
	c.SetCaching(true)
	ctx := context.Background()
	var bogus sev.ChipID
	bogus[3] = 7

	for i := 0; i < 2; i++ {
		before := env.hits.Load()
		if _, err := c.VCEK(ctx, bogus, 9); !errors.Is(err, ErrNotFound) {
			t.Fatalf("attempt %d: err = %v, want ErrNotFound", i, err)
		}
		if env.hits.Load() == before {
			t.Errorf("attempt %d served from cache; failures must not be cached", i)
		}
	}
}

// TestVCEKCacheBounded: the LRU never exceeds its capacity.
func TestVCEKCacheBounded(t *testing.T) {
	env := newTestEnv(t)
	c := NewClient(env.server.URL, nil)
	c.cache = cache.New[string, certs](4) // a small LRU in place of vcekCacheSize
	c.SetCaching(true)
	ctx := context.Background()

	for tcb := uint64(1); tcb <= 10; tcb++ {
		if _, err := c.VCEK(ctx, env.sp.ChipID(), tcb); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.cache.Len(); n > 4 {
		t.Errorf("cache holds %d entries, cap 4", n)
	}
	// The most recent entry is still a hit…
	before := env.hits.Load()
	if _, err := c.VCEK(ctx, env.sp.ChipID(), 10); err != nil {
		t.Fatal(err)
	}
	if env.hits.Load() != before {
		t.Error("most recent entry evicted")
	}
	// …and the oldest was evicted, forcing a re-fetch.
	if _, err := c.VCEK(ctx, env.sp.ChipID(), 1); err != nil {
		t.Fatal(err)
	}
	if env.hits.Load() == before {
		t.Error("evicted entry still served")
	}
}
