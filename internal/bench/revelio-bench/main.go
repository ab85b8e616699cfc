// Command revelio-bench regenerates the paper's evaluation tables and
// figures (§6.2–§6.4) under paper-scale network conditions, by calling
// the internal/bench harness.
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
//
// Run it with `go run ./internal/bench/revelio-bench`. The seeded chaos
// sweeps are not here: they are internal/chaos's TestChaosSeeds.
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

	"revelio/internal/bench"
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
	if err := fs.Parse(args); err != nil {
		return err
	}
	if f := *figureNum; f != 0 && f != 5 && f != 6 {
		return fmt.Errorf("no figure %d (figures are 5 and 6)", f)
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
