package bench

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"revelio/internal/attest"
	"revelio/internal/browser"
	"revelio/internal/core"
	"revelio/internal/imagebuild"
	"revelio/internal/webext"
)

// Table3Result reproduces Table 3: browser-based remote attestation and
// validation latency from a client connecting to a Revelio-protected
// Boundary Node.
type Table3Result struct {
	NetworkLatency     time.Duration
	PlainGET           time.Duration
	GETWithAttestation time.Duration
	GETWithConnCheck   time.Duration
	// WarmAttestation is the fresh-attestation cost with a warm VCEK
	// cache — the paper's caching argument.
	WarmAttestation time.Duration
	// ColdOps and WarmOps are what the two fresh-session rows asked of
	// the verification plane, as counts no machine's speed can move: the
	// warm VCEK cache is the KDS round trips it removes.
	ColdOps, WarmOps AttestationOps
}

// AttestationOps counts what one attestation cost the verification plane.
type AttestationOps struct {
	// KDSRequests is the number of round trips to the KDS.
	KDSRequests int64
	// Verified is the verifier's cryptography and proof-tier hits.
	Verified attest.Stats
}

// Table3Config scales the injected latencies.
type Table3Config struct {
	// BrowserRTT is the base client network latency (paper: 5.2 ms).
	BrowserRTT time.Duration
	// KDSRTT is the client-to-AMD-KDS latency (paper: VCEK fetch
	// dominates at 427.3 ms).
	KDSRTT time.Duration
}

// DefaultTable3Config approximates the paper's mobile-client scenario.
func DefaultTable3Config() Table3Config {
	return Table3Config{
		BrowserRTT: 5200 * time.Microsecond,
		KDSRTT:     140 * time.Millisecond, // 3 KDS round trips ≈ 420 ms
	}
}

// RunTable3 deploys a BN-profile node, connects a browser with and
// without the extension, and measures the four client-side scenarios.
func RunTable3(cfg Table3Config) (*Table3Result, error) {
	reg := imagebuild.NewRegistry()
	base := imagebuild.PublishUbuntuBase(reg)
	spec := imagebuild.BoundaryNodeSpec(base)

	d, err := core.New(core.Config{
		Spec:     spec,
		Registry: reg,
		Nodes:    1,
		Domain:   "bn.example.org",
		KDSRTT:   cfg.KDSRTT,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: table3: %w", err)
	}
	defer d.Close()
	if _, err := d.ProvisionCertificates(context.Background()); err != nil {
		return nil, err
	}
	if err := d.StartWeb(func(*core.Node) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("<html>minimal page</html>"))
		})
	}); err != nil {
		return nil, err
	}

	b := browser.New(d.CARootPool(), cfg.BrowserRTT)
	defer b.Close()
	b.Resolve("bn.example.org", d.Nodes[0].WebAddr())
	ctx := context.Background()
	res := &Table3Result{NetworkLatency: cfg.BrowserRTT}

	// Warm up the TLS path once so one-time costs (page faults, the
	// handshake) don't land on the first measured scenario. The browser
	// keeps the connection, so the plain GET below rides it: the row is
	// a request on an established connection, as in a browsing session.
	if _, err := b.Get(ctx, "bn.example.org", "/"); err != nil {
		return nil, err
	}

	// Plain access: browser without the extension.
	start := time.Now()
	if _, err := b.Get(ctx, "bn.example.org", "/"); err != nil {
		return nil, err
	}
	res.PlainGET = time.Since(start)

	// Fresh session with the extension, cold KDS: the deployment runs
	// with the VCEK cache on, and turning it off clears it. ResetSession
	// makes it a new browser context: this row (and the warm-cache one
	// below) includes the TLS handshake a first access pays, then the
	// bundle fetch, the verification and the page — all on that one
	// connection.
	d.KDSClient.SetCaching(false)
	ext := webext.New(b, d.Verifier)
	ext.RegisterSite("bn.example.org", d.Golden)
	// freshSession times one navigation in a new browser context and
	// counts what it asked of the verification plane.
	freshSession := func() (time.Duration, AttestationOps, error) {
		ext.ResetSession()
		kdsBefore, verifiedBefore := d.KDSNet().Requests(), d.Verifier.Stats()
		start := time.Now()
		_, _, err := ext.Navigate(ctx, "bn.example.org", "/")
		return time.Since(start), AttestationOps{
			KDSRequests: d.KDSNet().Requests() - kdsBefore,
			Verified:    d.Verifier.Stats().Sub(verifiedBefore),
		}, err
	}
	if res.GETWithAttestation, res.ColdOps, err = freshSession(); err != nil {
		return nil, err
	}

	// Subsequent access in the same session: the request rides the
	// attested connection and costs connection validation only — no
	// handshake, the paper's "paid once per session".
	start = time.Now()
	if _, _, err := ext.Navigate(ctx, "bn.example.org", "/"); err != nil {
		return nil, err
	}
	res.GETWithConnCheck = time.Since(start)

	// Fresh session with a warm VCEK cache.
	d.KDSClient.SetCaching(true)
	// Prime the cache with one attestation, then measure a fresh session.
	if _, _, err := freshSession(); err != nil {
		return nil, err
	}
	if res.WarmAttestation, res.WarmOps, err = freshSession(); err != nil {
		return nil, err
	}

	return res, nil
}

// Render prints the table in the paper's layout.
func (r *Table3Result) Render() string {
	rows := [][]string{
		{"Network latency", fmtMS(r.NetworkLatency)},
		{"Plain HTTP GET", fmtMS(r.PlainGET)},
		{"HTTP GET and remote attestation", fmtMS(r.GETWithAttestation)},
		{"HTTP GET and conn. validation", fmtMS(r.GETWithConnCheck)},
		{"(fresh session, warm VCEK cache)", fmtMS(r.WarmAttestation)},
	}
	return "Table 3: Browser-based remote attestation and validation\n" +
		table([]string{"Scenario", "Latency(ms)"}, rows)
}
