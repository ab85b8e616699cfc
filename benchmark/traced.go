package main

import (
	"context"
	"fmt"
	"runtime"
)

// runTraced is the run per-layer metrics come from. It stands the
// system up once behind the benchmark's own TLS servers, then runs the
// workload three times over: open loop and closed loop with the
// recorder off (the generator's health, the ungated tails and the
// process counters), and closed loop with it on (the spans). The ratio
// of the two closed loops is the tracing overhead; end-to-end metrics
// never come from here.
func runTraced(ctx context.Context, wl workload, o options) (*result, error) {
	res := newResult(wl.name, o.seed)
	tr := newTracer(runtime.NumCPU())
	runtime.GC()
	e, err := standUp(ctx, o.seed, tr)
	if err != nil {
		return nil, fmt.Errorf("stand-up: %w", err)
	}
	defer e.close()
	g := e.gen
	if wl.churn {
		churn := startChurn(e)
		defer churn.halt()
	}
	d := share(o.seconds, tracedPhaseShare)
	g.closed(warmUp, wl.op)

	open := g.open(wl.rate, d, wl.op)
	late, lat := series(open.samples, lateness), series(open.samples, latency)
	res.Metrics["loadgen.late_p50_ms"] = res.time("open.late", late) // time sorts its argument
	res.Metrics["loadgen.late_p99_ms"] = ms(percentile(late, 0.99))
	res.time("open.latency", lat)
	res.Metrics["loadgen.open_p99_ms"] = ms(percentile(lat, 0.99))
	res.Metrics["loadgen.open_p999_ms"] = ms(percentile(lat, 0.999))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	untraced := g.closed(d, wl.op)
	runtime.ReadMemStats(&m1)
	ops := float64(len(untraced.samples))
	secs := float64(untraced.elapsed) / 1e9
	svc := series(untraced.samples, service)
	res.Metrics["loadgen.svc_p50_ms"] = res.time("closed.service", svc)
	res.Metrics["loadgen.svc_p99_ms"] = ms(percentile(svc, 0.99))
	res.Metrics["process.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / ops
	res.Metrics["process.heap_inuse_mb"] = float64(m1.HeapInuse) / (1 << 20)
	res.Metrics["process.gc_pause_ms_per_s"] = ms(int64(m1.PauseTotalNs-m0.PauseTotalNs)) / secs

	shakes := e.handshakes.Load()
	tr.on.Store(true)
	traced := g.closed(d, wl.op)
	spans := tr.take()
	shakes = e.handshakes.Load() - shakes
	tracedOps := float64(len(traced.samples))
	res.Metrics["trace.overhead_ratio"] = tracedOps / (float64(traced.elapsed) / 1e9) / (ops / secs)
	res.Metrics["gateway.downstream_handshakes_per_kop"] = 1000 * float64(shakes) / tracedOps

	b, err := analyze(spans)
	if err == nil {
		err = b.check()
	}
	if err != nil {
		g.attempted.Add(1)
		g.fail(err)
	}
	for l, name := range layerSelfMetrics {
		res.Metrics[name] = b.meanSelfUS(layer(l))
	}
	for _, l := range []layer{layerCryptWrite, layerCryptRead, layerRootfsRead} {
		res.Metrics[layerNames[l]+"_spans_per_kop"] = 1000 * float64(b.counts[l]) / float64(max(b.ops, 1))
	}
	if o.traceOut != "" {
		if err := writeTrace(o.traceOut+"."+wl.name+".json", spans); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}

	st := e.gw.Stats()
	res.Metrics["gateway.retries"] = float64(st.Retries)
	res.Metrics["gateway.shed"] = float64(st.SheddedRequests)
	res.finish(g)
	res.Metrics["loadgen.sent"] = float64(res.Attempted)
	res.Metrics["loadgen.failed"] = float64(res.Failed)
	res.Metrics["loadgen.ok"] = float64(res.Attempted - res.Failed)
	return res, nil
}
