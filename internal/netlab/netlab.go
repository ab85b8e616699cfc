// Package netlab injects deterministic network conditions into HTTP
// clients, standing in for the paper's testbed network (wireless client,
// WAN path to the AMD KDS). The client-side experiments of Table 3 need a
// stable, configurable base latency; netlab provides it without leaving
// the process. The live fault seams — SetOutage, SetRTT, Partition,
// SetLoss, SetDrip — are what the chaos scheduler flips mid-traffic.
package netlab

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Transport delays every request by RTT and can inject failures. It
// implements http.RoundTripper over a connection pool of its own.
type Transport struct {
	// RTT is added to every round trip (one sleep per request).
	RTT time.Duration

	// outage, when set, fails every request — the switchable
	// whole-service blackout (a KDS outage).
	outage atomic.Pointer[outageState]
	// partition, when set, fails requests to a named set of hosts — the
	// per-link half of SetOutage's whole-service blackout.
	partition atomic.Pointer[partitionState]
	// rttOverride, when set, replaces RTT — the flappable latency knob.
	rttOverride atomic.Pointer[time.Duration]
	// lossEvery > 0 drops every lossEvery-th request (counted by
	// lossCount) — deterministic loss, no RNG in the data path.
	lossEvery atomic.Int64
	lossCount atomic.Int64
	// drip, when set, slows every response body to small chunks with a
	// per-read pause — the slow-drip gray failure: headers arrive
	// promptly, the payload crawls.
	drip     atomic.Pointer[time.Duration]
	requests atomic.Int64

	ownOnce sync.Once
	own     *http.Transport // made on first use
}

// inner is the transport's own connection pool (http.DefaultTransport's
// settings), so that CloseIdleConnections reaches this transport's
// connections and no one else's.
func (t *Transport) inner() *http.Transport {
	t.ownOnce.Do(func() { t.own = http.DefaultTransport.(*http.Transport).Clone() })
	return t.own
}

type outageState struct{ err error }

// partitionState names the hosts cut off and the error their requests
// fail with.
type partitionState struct {
	err   error
	hosts map[string]bool
}

var _ http.RoundTripper = (*Transport)(nil)

// SetOutage makes every subsequent request fail with err until cleared
// with SetOutage(nil). It is safe to flip while requests are in flight,
// which is what outage-recovery scenarios do.
func (t *Transport) SetOutage(err error) {
	if err == nil {
		t.outage.Store(nil)
		return
	}
	t.outage.Store(&outageState{err: err})
}

// Partition cuts the link to the given hosts (host:port, as dialed):
// every request to them fails with err until HealPartition. It is safe
// to flip while requests are in flight — it is the chaos scheduler's
// per-link fault, where SetOutage is the whole-service one.
func (t *Transport) Partition(err error, hosts ...string) {
	set := make(map[string]bool, len(hosts))
	for _, h := range hosts {
		set[h] = true
	}
	t.partition.Store(&partitionState{err: err, hosts: set})
}

// HealPartition restores every partitioned link.
func (t *Transport) HealPartition() { t.partition.Store(nil) }

// SetRTT overrides the base RTT until ClearRTT — the latency-flap seam,
// safe to flip while requests are in flight (the RTT field itself is
// read-only after the transport is shared).
func (t *Transport) SetRTT(d time.Duration) { t.rttOverride.Store(&d) }

// ClearRTT removes the SetRTT override, restoring the base RTT.
func (t *Transport) ClearRTT() { t.rttOverride.Store(nil) }

// SetLoss drops every n-th request (n <= 0 disables). Loss is counted,
// not sampled, so a schedule that injects loss is exactly reproducible:
// the i-th request through the transport either always or never fails
// for a given interleaving.
func (t *Transport) SetLoss(n int) { t.lossEvery.Store(int64(n)) }

// SetDrip makes every subsequent response body arrive in small chunks
// with pause d between reads — the slow-drip gray failure, where the
// request "succeeds" (headers land promptly) but the payload crawls.
// Safe to flip while requests are in flight; clear with ClearDrip.
func (t *Transport) SetDrip(d time.Duration) {
	if d <= 0 {
		t.drip.Store(nil)
		return
	}
	t.drip.Store(&d)
}

// ClearDrip restores full-speed response bodies.
func (t *Transport) ClearDrip() { t.drip.Store(nil) }

// dripBody rations a response body: at most chunk bytes per Read, with
// a pause before each. The pause is fixed per response — captured when
// the response was created — so clearing the drip mid-body does not
// change an in-flight response's pacing (deterministic replay).
type dripBody struct {
	inner io.ReadCloser
	pause time.Duration
	chunk int
}

func (b *dripBody) Read(p []byte) (int, error) {
	time.Sleep(b.pause)
	if len(p) > b.chunk {
		p = p[:b.chunk]
	}
	return b.inner.Read(p)
}

func (b *dripBody) Close() error { return b.inner.Close() }

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if o := t.outage.Load(); o != nil {
		return nil, fmt.Errorf("netlab: injected outage: %w", o.err)
	}
	if p := t.partition.Load(); p != nil && p.hosts[req.URL.Host] {
		return nil, fmt.Errorf("netlab: partitioned link to %s: %w", req.URL.Host, p.err)
	}
	if n := t.lossEvery.Load(); n > 0 && t.lossCount.Add(1)%n == 0 {
		return nil, fmt.Errorf("netlab: injected loss (every %d)", n)
	}
	rtt := t.RTT
	if o := t.rttOverride.Load(); o != nil {
		rtt = *o
	}
	if rtt > 0 {
		time.Sleep(rtt)
	}
	t.requests.Add(1)
	resp, err := t.inner().RoundTrip(req)
	if err == nil && resp.Body != nil {
		if d := t.drip.Load(); d != nil {
			resp.Body = &dripBody{inner: resp.Body, pause: *d, chunk: 512}
		}
	}
	return resp, err
}

// Requests returns the number of round trips performed. Requests aborted
// by an injected outage, partition or loss are not counted — the counter reflects
// traffic that actually reached the wire, which is what singleflight
// collapse proofs measure.
func (t *Transport) Requests() int64 { return t.requests.Load() }

// CloseIdleConnections forwards to the transport's own pool so
// http.Client.CloseIdleConnections reaches the real connections —
// without it, every netlab client would strand keep-alive goroutines
// past teardown.
func (t *Transport) CloseIdleConnections() { t.inner().CloseIdleConnections() }

// Client wraps a latency-injecting transport in an http.Client.
func Client(rtt time.Duration) *http.Client {
	return &http.Client{Transport: &Transport{RTT: rtt}}
}
