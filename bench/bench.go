// Package bench is the public experiment harness: it regenerates the
// paper's evaluation tables and figures (§6.2–§6.4) plus this
// reproduction's Table 5 (fleet scalability) under paper-scale network
// conditions. Every result renders paper-style rows (Render) and
// marshals to JSON; cmd/revelio-bench is the CLI over this package.
// Gateway throughput is measured by the repository's benchmark
// (go run ./benchmark), not here.
package bench

import "revelio/internal/bench"

// Size units for configuring figure sweeps.
const (
	KiB = bench.KiB
	MiB = bench.MiB
)

type (
	// Table1Result reports boot delays per image profile.
	Table1Result = bench.Table1Result
	// Table2Config / Table2Result cover certificate operations (Fig 4).
	Table2Config = bench.Table2Config
	Table2Result = bench.Table2Result
	// Table3Config / Table3Result cover client-side attestation.
	Table3Config = bench.Table3Config
	Table3Result = bench.Table3Result
	// Table5Config / Table5Result cover fleet scalability under churn.
	Table5Config = bench.Table5Config
	Table5Result = bench.Table5Result
	// Fig5Config / Fig5Result cover dm-crypt I/O throughput.
	Fig5Config = bench.Fig5Config
	Fig5Result = bench.Fig5Result
	// Fig6Config / Fig6Result cover dm-verity read throughput.
	Fig6Config = bench.Fig6Config
	Fig6Result = bench.Fig6Result
	// ChaosConfig / ChaosResult / ChaosRun cover the seeded chaos
	// scheduler: randomized fault schedules against a live fleet serving
	// attested-TLS traffic through the gateway, with deterministic
	// per-seed replay.
	ChaosConfig = bench.ChaosConfig
	ChaosResult = bench.ChaosResult
	ChaosRun    = bench.ChaosRun
	// AblationVerityResult / AblationPBKDF2Result cover the ablations.
	AblationVerityResult = bench.AblationVerityResult
	AblationPBKDF2Result = bench.AblationPBKDF2Result
)

// Default figure sweep sizes.
var (
	DefaultFig5Sizes = bench.DefaultFig5Sizes
	DefaultFig6Sizes = bench.DefaultFig6Sizes
)

// Experiment entry points and default configurations.

// RunTable1 measures boot delays per image profile.
func RunTable1() (*Table1Result, error) { return bench.RunTable1() }

// DefaultTable2Config returns the paper-scale Table 2 configuration.
func DefaultTable2Config() Table2Config { return bench.DefaultTable2Config() }

// RunTable2 measures certificate operations (Fig 4 decomposition).
func RunTable2(cfg Table2Config) (*Table2Result, error) { return bench.RunTable2(cfg) }

// DefaultTable3Config returns the paper-scale Table 3 configuration.
func DefaultTable3Config() Table3Config { return bench.DefaultTable3Config() }

// RunTable3 measures client-side attestation latency.
func RunTable3(cfg Table3Config) (*Table3Result, error) { return bench.RunTable3(cfg) }

// DefaultTable5Config returns the default Table 5 configuration.
func DefaultTable5Config() Table5Config { return bench.DefaultTable5Config() }

// RunFleetScalability measures fleet provisioning/join latency and
// steady-state attested-TLS throughput over fleet sizes (Table 5).
func RunFleetScalability(cfg Table5Config) (*Table5Result, error) {
	return bench.RunFleetScalability(cfg)
}

// DefaultChaosConfig returns the CI chaos sweep shape (twenty seeds,
// small profile).
func DefaultChaosConfig() ChaosConfig { return bench.DefaultChaosConfig() }

// RunChaos executes seeded fault schedules against live fleets and
// reports every seed's outcome; failing seeds carry the seed and the
// full schedule for exact replay.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) { return bench.RunChaos(cfg) }

// RunFig5 measures dm-crypt I/O throughput.
func RunFig5(cfg Fig5Config) (*Fig5Result, error) { return bench.RunFig5(cfg) }

// RunFig6 measures dm-verity read throughput.
func RunFig6(cfg Fig6Config) (*Fig6Result, error) { return bench.RunFig6(cfg) }

// RunAblationVerityBlockSize sweeps dm-verity block sizes.
func RunAblationVerityBlockSize(blockSizes []int) (*AblationVerityResult, error) {
	return bench.RunAblationVerityBlockSize(blockSizes)
}

// RunAblationPBKDF2 sweeps PBKDF2 iteration counts.
func RunAblationPBKDF2(iterations []int) (*AblationPBKDF2Result, error) {
	return bench.RunAblationPBKDF2(iterations)
}
