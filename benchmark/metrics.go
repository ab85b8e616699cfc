package main

import (
	"fmt"
	"io"
	"sort"
)

// metric declares one reported number. BENCHMARK.json repeats these
// declarations for the driver; a test keeps the two in step.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the gated metrics: what a user of the system sees. Each
// is reported by every workload, as its quiet value at the reference
// speed (see result.finish). A bound is the share of the parent's
// median by which a later change may worsen the metric; README.md
// ("Steadiness") has the measured spreads the bounds follow from.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"rps", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"attest_p50_ms", "ms", "lower", 0.25},
	{"follow_p50_ms", "ms", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"asset_p50_ms", "ms", "lower", 0.25},
	{"join_p50_ms", "ms", "lower", 0.25},
	{"stall_p50_ms", "ms", "lower", 0.25},
}

func lower(unit string, names ...string) []metric {
	out := make([]metric, len(names))
	for i, n := range names {
		out[i] = metric{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

// perLayer are the ungated single-layer metrics, named package.metric.
// The first three groups come from the traced run of a workload, the
// rest from the layer ladder.
var perLayer = concat(
	// Traced pass: mean self time per operation of each boundary.
	lower("us", "trace.downstream_self_us", "gateway.serve_self_us", "fleet.acquire_us", "app.self_us",
		"dmcrypt.write_us", "dmcrypt.read_us", "rootfs.read_us"),
	lower("count", "dmcrypt.write_spans_per_kop", "dmcrypt.read_spans_per_kop", "rootfs.read_spans_per_kop",
		"gateway.downstream_handshakes_per_kop", "gateway.retries", "gateway.shed"),
	[]metric{{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"}},
	// The process and the generator during the workload's untraced phases.
	lower("count", "process.allocs_per_op", "loadgen.failed"),
	lower("MB", "process.heap_inuse_mb"),
	lower("ms/s", "process.gc_pause_ms_per_s"),
	[]metric{{Name: "loadgen.sent", Unit: "count", Better: "higher"}, {Name: "loadgen.ok", Unit: "count", Better: "higher"}},
	lower("ms", "loadgen.late_p50_ms", "loadgen.late_p99_ms", "loadgen.open_p99_ms", "loadgen.open_p999_ms",
		"loadgen.svc_p50_ms", "loadgen.svc_p99_ms"),
	// Ladder, data plane.
	lower("us", "gateway.serve_us", "core.node_direct_us", "core.node_upstream_us"),
	lower("count", "gateway.serve_allocs", "core.node_direct_allocs"),
	lower("ns", "fleet.acquire_ns", "fleet.endpoints_ns"),
	// Ladder, RA-TLS.
	lower("us", "ratls.handshake_full_us", "ratls.handshake_resumed_us", "ratls.create_cert_us",
		"ratls.verify_cert_us", "ratls.verify_memo_us"),
	// Ladder, attestation and the end-user path.
	lower("us", "attest.verify_cold_us", "attest.verify_chain_hit_us", "attest.verify_report_hit_us",
		"kds.vcek_miss_us", "kds.vcek_hit_us", "kds.cert_chain_miss_us", "sev.report_sign_us", "sev.report_verify_us",
		"certmgr.wellknown_nonce_us", "certmgr.wellknown_cached_us", "browser.get_us", "webext.attest_us",
		"webext.conn_validation_us"),
	// Ladder, storage.
	[]metric{{Name: "xts.encrypt_mbps", Unit: "MB/s", Better: "higher"}, {Name: "xts.decrypt_mbps", Unit: "MB/s", Better: "higher"}},
	lower("us", "dmcrypt.write_4k_us", "dmcrypt.write_64k_us", "dmcrypt.write_64k_unaligned_us",
		"dmcrypt.read_4k_us", "dmcrypt.read_64k_us"),
	lower("count", "blockdev.inner_ios_per_write_64k", "blockdev.inner_ios_per_read_64k"),
	lower("us", "dmverity.read_4k_warm_us", "dmverity.read_64k_warm_us", "dmverity.read_4k_cold_us", "rootfs.read_file_us"),
	// Ladder, lifecycle.
	lower("ms", "dmverity.format_ms", "dmverity.verify_all_ms", "dmcrypt.format_ms", "dmcrypt.open_ms",
		"vm.boot_ms", "vm.verity_setup_ms", "vm.crypt_unlock_ms", "vm.identity_ms",
		"fleet.add_node_ms", "fleet.remove_node_ms", "fleet.replace_idle_ms", "fleet.rotate_ms",
		"certmgr.provision_ms", "imagebuild.build_ms"),
)

func concat(groups ...[]metric) []metric {
	var out []metric
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// workloadWhy records why each workload exists, as BENCHMARK.json does.
var workloadWhy = map[string]string{
	"steady":   "GET / over keep-alive connections at 8000 req/s: only the gateway hot path and net/http work; storage and attestation are bypassed",
	"sessions": "one fresh attested browser session per op at 100/s: sev, attest, kds, certmgr, webext and TLS handshakes work; proxy path and storage are bypassed",
	"pad":      "64 KiB pad writes and reads on dm-crypt plus dm-verity assets at 1000 req/s, seeded 1:2:1: storage and large-body copy work; attestation is bypassed",
	"churn":    "steady traffic at 2000 req/s while ReplaceNode loops: lifecycle contends with the data plane on the membership lock and the CPU",
}

// printMetrics writes res's metrics in declaration order, each with its
// unit, then its timings by name.
func printMetrics(w io.Writer, res *result, decls []metric) {
	fmt.Fprintf(w, "workload %s seed %d: attempted %d, failed %d\n", res.Workload, res.Seed, res.Attempted, res.Failed)
	if res.FirstErr != "" {
		fmt.Fprintf(w, "  first error: %s\n", res.FirstErr)
	}
	if res.Speed > 0 {
		fmt.Fprintf(w, "  machine speed %.3f (reference server at %.0f of %.0f req/s); times and costs below are multiplied by it, rates divided\n",
			res.Speed, res.Speed*referenceRate, float64(referenceRate))
	}
	for _, m := range decls {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
	names := make([]string, 0, len(res.Timings))
	for name := range res.Timings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := res.Timings[name]
		fmt.Fprintf(w, "  timing %-22s p50 %10.4f ms", name, t.P50ms)
		if t.TailQ > 0.5 {
			fmt.Fprintf(w, "  p%-6g %10.4f ms", t.TailQ*100, t.Tailms)
		}
		fmt.Fprintf(w, "  n=%d\n", t.N)
	}
}
