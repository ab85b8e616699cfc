// Benchmarks regenerating the paper's tables and figures. Each table or
// figure has a Benchmark* entry point wrapping the harness;
// `go test -bench . ./internal/bench` prints the paper-style rows once per
// target via b.Log on top of the usual ns/op accounting.
//
//	Table 1  -> BenchmarkTable1_BootDelays
//	Table 2  -> BenchmarkTable2_CertOperations
//	Table 3  -> BenchmarkTable3_ClientSide
//	Table 5  -> BenchmarkTable5_FleetScalability
//	Fig 5    -> BenchmarkFig5_DmCryptIO
//	Fig 6    -> BenchmarkFig6_DmVerityRead
//	ablations -> BenchmarkAblation_*
package bench_test

import (
	"sync"
	"testing"
	"time"

	"revelio/internal/bench"
	"revelio/internal/blockdev"
	"revelio/internal/dmcrypt"
)

// logOnce renders a result table once per benchmark run.
var logOnce sync.Map

func renderOnce(b *testing.B, key, rendered string) {
	b.Helper()
	if _, done := logOnce.LoadOrStore(key, struct{}{}); !done {
		b.Log("\n" + rendered)
	}
}

// BenchmarkTable1_BootDelays regenerates Table 1: Revelio-imposed first-
// boot delays (dm-crypt setup, dm-verity setup/verify, identity
// creation) for the BN and CP profiles.
func BenchmarkTable1_BootDelays(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, "table1", res.Render())
	}
}

// BenchmarkFig5_DmCryptIO regenerates Fig 5: dm-crypt read/write latency
// vs a plain device, one row each per transfer size, in 4 KiB requests as
// the paper's dd runs.
func BenchmarkFig5_DmCryptIO(b *testing.B) {
	sizes := []int64{4 * bench.KiB, 64 * bench.KiB, 1 * bench.MiB, 16 * bench.MiB}
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig5(bench.Fig5Config{Sizes: sizes})
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, "fig5", res.Render())
	}
}

// BenchmarkFig5_Throughput measures raw dm-crypt sequential-read
// throughput: one 8 MiB request per iteration.
func BenchmarkFig5_Throughput(b *testing.B) {
	const total = 8 * bench.MiB
	raw := blockdev.NewMem(total + dmcrypt.HeaderSectors*dmcrypt.SectorSize)
	dev, err := dmcrypt.Format(raw, []byte("bench"), dmcrypt.Options{Iterations: 10})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, total)
	if err := dev.WriteAt(buf, 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dev.ReadAt(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6_DmVerityRead regenerates Fig 6: dm-verity read latency
// and slowdown factor across file sizes, with a cold, a tree-warm and a
// data-warm row per size.
func BenchmarkFig6_DmVerityRead(b *testing.B) {
	sizes := []int64{64 * bench.KiB, 1 * bench.MiB, 8 * bench.MiB, 32 * bench.MiB}
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig6(bench.Fig6Config{Sizes: sizes})
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, "fig6", res.Render())
	}
}

// BenchmarkTable2_CertOperations regenerates Table 2: SSL certificate
// generation and distribution with mutual attestation. Network latencies
// are scaled down from the defaults to keep bench runs quick; use
// revelio-bench for paper-scale conditions.
func BenchmarkTable2_CertOperations(b *testing.B) {
	cfg := bench.Table2Config{
		SPNetRTT: time.Millisecond,
		CARTT:    25 * time.Millisecond,
	}
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, "table2", res.Render())
	}
}

// BenchmarkTable3_ClientSide regenerates Table 3: plain vs attested vs
// connection-validated page loads, plus the warm-VCEK-cache case.
func BenchmarkTable3_ClientSide(b *testing.B) {
	cfg := bench.Table3Config{
		BrowserRTT: 1 * time.Millisecond,
		KDSRTT:     20 * time.Millisecond,
	}
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, "table3", res.Render())
	}
}

// BenchmarkTable5_FleetScalability regenerates Table 5: fleet
// provisioning latency, single-node join latency, and steady-state
// attested-TLS requests/sec, swept over fleet sizes. Node counts and
// network latencies are scaled down from the paper-scale sweep (1–64
// nodes) to keep bench runs quick; use revelio-bench -table 5 for
// the full table.
func BenchmarkTable5_FleetScalability(b *testing.B) {
	cfg := bench.Table5Config{
		NodeCounts: []int{1, 4},
		Requests:   256,
		Clients:    8,
	}
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFleetScalability(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, "table5", res.Render())
	}
}

// BenchmarkAblation_VerityBlockSize sweeps the dm-verity hash-block size
// (DESIGN.md ablation 1).
func BenchmarkAblation_VerityBlockSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunAblationVerityBlockSize([]int{1 * bench.KiB, 4 * bench.KiB, 64 * bench.KiB})
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, "ablation-verity", res.Render())
	}
}

// BenchmarkAblation_PBKDF2Iterations sweeps the dm-crypt KDF hardness
// (DESIGN.md ablation 2; the paper uses 1000 iterations).
func BenchmarkAblation_PBKDF2Iterations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunAblationPBKDF2([]int{100, 1000, 10000})
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, "ablation-pbkdf2", res.Render())
	}
}
