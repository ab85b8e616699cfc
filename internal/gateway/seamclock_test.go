package gateway

import (
	"context"
	"crypto/tls"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"revelio/internal/ratls"
)

// TestGatewayBreakerLatencyOnSeamClock is the regression test for the
// clock-seam bug the timeseam analyzer flushed out: forward() measured
// per-attempt latency with the naked wall clock while the breaker's
// slow-threshold and dwell accounting ran on the injected
// Resilience.Now. Under any injected clock the measured latency stayed
// at real-time values (~0 for a local upstream), so the gray-failure
// detector never tripped — chaos replays and tests could not exercise
// slowness at all. With latency measured on the seam, a clock that
// advances on every read makes a fast-in-real-time upstream register
// as slow, and the breaker must open.
func TestGatewayBreakerLatencyOnSeamClock(t *testing.T) {
	provider := newTestProvider("seamclock")

	cert, err := ratls.CreateProviderCertificate(context.Background(), provider, testDomain)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: idHandler("fast"), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(tls.NewListener(ln, &tls.Config{Certificates: []tls.Certificate{cert}})) }()
	t.Cleanup(func() { _ = srv.Close() })

	// Every read of the injected clock advances it by more than the slow
	// threshold, so each attempt's start→end delta counts as slow no
	// matter how fast the upstream answers in real time.
	var ticks atomic.Int64
	base := time.Now()
	fakeNow := func() time.Time {
		return base.Add(time.Duration(ticks.Add(1)) * 60 * time.Millisecond)
	}

	gwCert := selfSigned(t)
	g, err := New(Config{
		Source:         NewView(testDomain, serving(ln.Addr().String())),
		Verifier:       provider,
		GetCertificate: func() (*tls.Certificate, error) { return &gwCert, nil },
		Resilience: Resilience{
			BreakerSlow:     50 * time.Millisecond,
			BreakerFailures: 2,
			// Keep the probe loop and re-admission out of the picture:
			// the assertion is about tripping, not recovery.
			BreakerOpenFor: time.Hour,
			ProbeInterval:  time.Hour,
			Now:            fakeNow,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	client := &http.Client{
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{InsecureSkipVerify: true}, //nolint:gosec // test client
		},
		Timeout: 10 * time.Second,
	}
	t.Cleanup(client.CloseIdleConnections)

	// Two successful-but-slow-on-the-seam responses must trip the
	// breaker; a couple more requests gives retries room without making
	// the assertion timing-sensitive.
	for i := 0; i < 4; i++ {
		resp, err := client.Get("https://" + g.Addr() + "/")
		if err != nil {
			continue // post-trip requests may 502; the counter is the assertion
		}
		_ = resp.Body.Close()
	}
	if opens := g.Stats().BreakerOpens; opens < 1 {
		t.Fatalf("BreakerOpens = %d after slow-on-the-seam successes, want >= 1 "+
			"(breaker latency not measured on the injected clock)", opens)
	}
}
