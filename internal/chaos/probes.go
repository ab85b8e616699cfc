package chaos

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"revelio/attestation"
)

// attestationExpired is the error class an expiry wave must surface.
var attestationExpired = attestation.ErrEvidenceExpired

// coherent asserts the gateway's routing state tracks the fleet: neither
// an ejection nor an open breaker references an endpoint that no longer
// exists (no ghost state for departed nodes). Stats pulls the fleet's
// current view before it reports, so there is nothing to wait for.
// Routed profiles add the zone-pinning invariant: across everything the
// schedule has done so far, not one request under the zone-pinned path
// class may have reached an out-of-zone node — the per-node app counters
// (which survive a node's departure) are the evidence.
func (r *run) coherent() error {
	if r.cfg.Routed {
		for _, a := range r.appList() {
			if a.locality != chaosZoneA && a.zoneAHits.Load() > 0 {
				return fmt.Errorf("zone-pinned path served by a %q node (%d hits) — policy filter leaked",
					a.locality, a.zoneAHits.Load())
			}
		}
	}
	snap := r.f.Endpoints()
	s := r.gw.Stats()
	if s.ViewVersion < snap.Version {
		return fmt.Errorf("gateway stats report view v%d, fleet is at v%d", s.ViewVersion, snap.Version)
	}
	known := make(map[string]bool, len(snap.Endpoints))
	for _, ep := range snap.Endpoints {
		known[ep.UpstreamAddr] = true
	}
	for _, addr := range s.Ejected {
		if !known[addr] {
			return fmt.Errorf("gateway ejection references departed endpoint %s (view v%d)", addr, snap.Version)
		}
	}
	for _, addr := range s.BreakerOpen {
		if !known[addr] {
			return fmt.Errorf("gateway open breaker references departed endpoint %s (view v%d)", addr, snap.Version)
		}
	}
	return nil
}

// probeServes requires `consecutive` back-to-back successful requests
// through the gateway within the deadline — the recovery probe after a
// fault window.
func (r *run) probeServes(ctx context.Context, consecutive int, within time.Duration) error {
	deadline := r.clock.Now().Add(within)
	streak := 0
	var last error
	for streak < consecutive {
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.clock.Now().After(deadline) {
			return fmt.Errorf("gateway did not serve %d consecutive requests within %s; last: %v",
				consecutive, within, last)
		}
		status, err := r.get(ctx)
		if err == nil && status == http.StatusOK {
			streak++
			continue
		}
		streak = 0
		if err != nil {
			last = err
		} else {
			last = fmt.Errorf("status %d", status)
		}
		r.clock.Sleep(10 * time.Millisecond)
	}
	return nil
}

// get issues one probe request through the gateway.
func (r *run) get(ctx context.Context) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.tr.url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := r.tr.client.Do(req)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, nil
}
