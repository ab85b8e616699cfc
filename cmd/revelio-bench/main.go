// Command revelio-bench regenerates the paper's evaluation tables and
// figures (§6.2–§6.4) under paper-scale network conditions.
//
// Usage:
//
//	revelio-bench                 # run everything
//	revelio-bench -table 1        # just Table 1
//	revelio-bench -figure 5       # just Fig 5
//	revelio-bench -table 2 -table 5   # several tables in one run
//	revelio-bench -ablations      # just the ablation sweeps
//	revelio-bench -quick          # scaled-down sizes and latencies
//	revelio-bench -json           # machine-readable JSON instead of tables
//	revelio-bench -chaos          # seeded chaos sweep (20 seeds by default)
//	revelio-bench -chaos.seed 7   # replay exactly one chaos seed
//	revelio-bench -chaos -chaos.gray       # graceful-degradation fault mix
//	revelio-bench -chaos -chaos.routed     # context-aware routing fault mix
//	revelio-bench -chaos -chaos.out FILE   # persist every schedule (CI artifact)
//
// A failing chaos seed prints the violated invariant plus the full fault
// schedule and exits nonzero; re-running with -chaos.seed=N replays the
// schedule byte for byte.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"revelio/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "revelio-bench:", err)
		os.Exit(1)
	}
}

// renderable is any bench result that can print paper-style rows.
type renderable interface{ Render() string }

// tableList collects repeated -table flags.
type tableList []int

func (t *tableList) String() string {
	parts := make([]string, len(*t))
	for i, v := range *t {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

func (t *tableList) Set(s string) error {
	v, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("bad table number %q", s)
	}
	switch v {
	case 0: // -table 0 keeps its historical "no filter" meaning
	case 1, 2, 3, 5:
		*t = append(*t, v)
	default:
		return fmt.Errorf("no table %d (tables are 1, 2, 3 and 5)", v)
	}
	return nil
}

func (t tableList) contains(n int) bool {
	for _, v := range t {
		if v == n {
			return true
		}
	}
	return false
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("revelio-bench", flag.ContinueOnError)
	var tables tableList
	fs.Var(&tables, "table", "run only this table: 1, 2, 3 or 5 (repeatable: -table 2 -table 5)")
	figureNum := fs.Int("figure", 0, "run only this figure (5 or 6)")
	ablations := fs.Bool("ablations", false, "run only the ablation sweeps")
	quick := fs.Bool("quick", false, "scaled-down sizes and latencies")
	jsonOut := fs.Bool("json", false, "emit one JSON document instead of rendered tables")
	chaosMode := fs.Bool("chaos", false, "run the seeded chaos sweep instead of tables/figures")
	chaosSeed := fs.Int64("chaos.seed", 0, "replay exactly this chaos seed (implies -chaos)")
	chaosSeeds := fs.Int("chaos.seeds", 20, "number of consecutive chaos seeds, starting at 1")
	chaosNodes := fs.Int("chaos.nodes", 2, "initial fleet size per chaos run")
	chaosEvents := fs.Int("chaos.events", 8, "scheduled faults per chaos run")
	chaosHeavy := fs.Bool("chaos.heavy", false, "include rollout-class chaos faults (nightly profile)")
	chaosGray := fs.Bool("chaos.gray", false, "include graceful-degradation chaos faults (gray failures, overload storms, slow drip)")
	chaosRouted := fs.Bool("chaos.routed", false, "install a context-aware routing policy and include the routing chaos faults (broken-canary rollouts, zone bursts)")
	chaosOut := fs.String("chaos.out", "", "write every executed chaos schedule to this file")
	chaosVerbose := fs.Bool("chaos.v", false, "log every injected chaos fault as it runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if f := *figureNum; f != 0 && f != 5 && f != 6 {
		return fmt.Errorf("no figure %d (figures are 5 and 6)", f)
	}

	if *chaosMode || *chaosSeed != 0 {
		return runChaos(stdout, chaosFlags{
			seed:    *chaosSeed,
			seeds:   *chaosSeeds,
			nodes:   *chaosNodes,
			events:  *chaosEvents,
			heavy:   *chaosHeavy,
			gray:    *chaosGray,
			routed:  *chaosRouted,
			out:     *chaosOut,
			verbose: *chaosVerbose,
			json:    *jsonOut,
		})
	}

	selected := func(table, figure int) bool {
		if *ablations {
			return false
		}
		if len(tables) == 0 && *figureNum == 0 {
			return true
		}
		return (table != 0 && tables.contains(table)) || (figure != 0 && figure == *figureNum)
	}

	// results accumulates every experiment's structured output for -json;
	// without it, each result renders as it completes.
	results := map[string]any{}
	emit := func(name string, res renderable) {
		if *jsonOut {
			results[name] = res
		} else {
			fmt.Fprintln(stdout, res.Render())
		}
	}

	if selected(1, 0) {
		res, err := bench.RunTable1()
		if err != nil {
			return err
		}
		emit("table1", res)
	}
	if selected(0, 5) {
		sizes := bench.DefaultFig5Sizes
		if *quick {
			sizes = []int64{4 * bench.KiB, 64 * bench.KiB, 1 * bench.MiB, 16 * bench.MiB}
		}
		res, err := bench.RunFig5(bench.Fig5Config{Sizes: sizes})
		if err != nil {
			return err
		}
		emit("fig5", res)
	}
	if selected(0, 6) {
		sizes := bench.DefaultFig6Sizes
		if *quick {
			sizes = []int64{64 * bench.KiB, 1 * bench.MiB, 8 * bench.MiB}
		}
		res, err := bench.RunFig6(bench.Fig6Config{Sizes: sizes})
		if err != nil {
			return err
		}
		emit("fig6", res)
	}
	if selected(2, 0) {
		cfg := bench.DefaultTable2Config()
		if *quick {
			cfg = bench.Table2Config{SPNetRTT: time.Millisecond, CARTT: 25 * time.Millisecond}
		}
		res, err := bench.RunTable2(cfg)
		if err != nil {
			return err
		}
		emit("table2", res)
	}
	if selected(3, 0) {
		cfg := bench.DefaultTable3Config()
		if *quick {
			cfg = bench.Table3Config{BrowserRTT: time.Millisecond, KDSRTT: 20 * time.Millisecond}
		}
		res, err := bench.RunTable3(cfg)
		if err != nil {
			return err
		}
		emit("table3", res)
	}
	if selected(5, 0) {
		cfg := bench.DefaultTable5Config()
		if *quick {
			cfg = bench.Table5Config{
				NodeCounts: []int{1, 2, 4, 8},
				Requests:   256,
				Clients:    8,
			}
		}
		res, err := bench.RunFleetScalability(cfg)
		if err != nil {
			return err
		}
		emit("table5", res)
	}
	if *ablations || (len(tables) == 0 && *figureNum == 0) {
		verity, err := bench.RunAblationVerityBlockSize(nil)
		if err != nil {
			return err
		}
		emit("ablation_verity_block_size", verity)
		iters := []int{100, 1000, 10000, 100000}
		if *quick {
			iters = []int{100, 1000, 10000}
		}
		pbkdf, err := bench.RunAblationPBKDF2(iters)
		if err != nil {
			return err
		}
		emit("ablation_pbkdf2", pbkdf)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return err
		}
	}
	return nil
}

// chaosFlags carries the parsed -chaos.* flag values.
type chaosFlags struct {
	seed    int64
	seeds   int
	nodes   int
	events  int
	heavy   bool
	gray    bool
	routed  bool
	out     string
	verbose bool
	json    bool
}

// runChaos executes the chaos sweep, persists schedules when asked, and
// exits nonzero when any seed failed — after rendering the failure with
// its seed and full schedule, so the replay recipe is always printed.
func runChaos(stdout io.Writer, f chaosFlags) error {
	cfg := bench.DefaultChaosConfig()
	cfg.Seeds = f.seeds
	cfg.Nodes = f.nodes
	cfg.Events = f.events
	cfg.Heavy = f.heavy
	cfg.Gray = f.gray
	cfg.Routed = f.routed
	if f.seed != 0 {
		cfg.FirstSeed, cfg.Seeds = f.seed, 1
	}
	if f.verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	res, err := bench.RunChaos(cfg)
	if err != nil {
		return err
	}
	if f.out != "" {
		var b strings.Builder
		for _, row := range res.Rows {
			b.WriteString(row.Schedule)
		}
		if err := os.WriteFile(f.out, []byte(b.String()), 0o644); err != nil {
			return fmt.Errorf("write schedules: %w", err)
		}
	}
	if f.json {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"chaos": res}); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(stdout, res.Render())
	}
	if len(res.FailedSeeds) > 0 {
		return fmt.Errorf("chaos: %d of %d seeds failed: %v (replay with -chaos.seed=N)",
			len(res.FailedSeeds), len(res.Rows), res.FailedSeeds)
	}
	return nil
}
