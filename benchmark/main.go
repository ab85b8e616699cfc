// Command benchmark is the repository's one benchmark: it stands up the
// real system in one process — a fleet of attested nodes behind the
// gateway — drives it from one load generator, and prints every metric
// by name with its unit. See README.md beside this file.
//
//	go run ./benchmark [-workload NAME] [-seed N] [-seconds N] [-trace 0|1]
//	                   [-trace-out PREFIX] [-json] [-repeat N]
//
// Without -workload it runs all four workloads, each untraced and then
// traced, and the layer ladder once. With -workload and -trace it speaks
// the driver's protocol: the last line of standard output is one JSON
// object holding every end-to-end metric (-trace 0) or every per-layer
// metric (-trace 1).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

const defaultSeconds = 28

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    string
	traceOut string
	asJSON   bool
	repeat   int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (steady, sessions, pad, churn); default all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for the op mix, slot and asset choices and pad contents")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "measured seconds per run, cut into rounds of open loop, closed loop, probes and reference")
	fs.StringVar(&o.trace, "trace", "", "0: untraced run only (end-to-end metrics); 1: traced run and ladder only (per-layer metrics); default both")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to PREFIX.<workload>.json")
	fs.BoolVar(&o.asJSON, "json", false, "print the results as one JSON document instead of text")
	fs.IntVar(&o.repeat, "repeat", 0, "run the untraced benchmark N times in child processes and compare two alternating sets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Below a second a round, a phase is shorter than one slice.
	if o.seconds < rounds || (o.trace != "" && o.trace != "0" && o.trace != "1") || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: bad arguments (-seconds is at least %d, -trace is 0 or 1)\n", rounds)
		fs.Usage()
		return 2
	}
	selected := workloads
	if o.workload != "" {
		wl, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
		selected = []workload{wl}
	}
	if o.repeat > 0 {
		return repeat(o, selected, stdout, stderr)
	}

	// Node teardown logs "http: TLS handshake error … EOF" through the
	// standard logger; it must not interleave with the report.
	log.SetOutput(io.Discard)
	// A wedged run must end by itself, well inside the driver's limit.
	watchdog := time.AfterFunc(time.Duration(len(selected))*150*time.Second, func() {
		fmt.Fprintln(stderr, "benchmark: run exceeded its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()

	text := stdout
	if o.asJSON {
		text = io.Discard
	}
	printHeader(text, o)
	ctx := context.Background()
	// driver: one workload, one pass, and the result object as last line.
	driver := o.workload != "" && o.trace != ""
	var all []*result
	failed := false
	report := func(res *result, decls []metric) {
		printMetrics(text, res, decls)
		all = append(all, res)
		failed = failed || res.Failed > 0
	}
	for _, wl := range selected {
		if o.trace != "1" {
			res, err := runUntraced(ctx, wl, o.seed, o.seconds)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", wl.name, err)
				return 1
			}
			report(res, endToEnd)
		}
		if o.trace != "0" {
			res, err := runTraced(ctx, wl, o)
			if err == nil && driver { // the driver's object carries every per-layer metric
				err = runLadder(ctx, res)
			}
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s traced: %v\n", wl.name, err)
				return 1
			}
			report(res, perLayer)
		}
	}
	if o.trace != "0" && !driver {
		res := newResult("ladder", o.seed)
		if err := runLadder(ctx, res); err != nil {
			fmt.Fprintf(stderr, "benchmark: ladder: %v\n", err)
			return 1
		}
		report(res, perLayer)
	}

	if o.asJSON {
		_ = json.NewEncoder(stdout).Encode(all)
	} else if driver {
		decls := endToEnd
		if o.trace == "1" {
			decls = perLayer
		}
		line, correct := driverLine(all[0], decls, o.trace == "0")
		failed = failed || !correct
		fmt.Fprintln(stdout, line)
	}
	if failed {
		return 1
	}
	return 0
}

// driverLine renders the driver's result object: exactly the declared
// metrics, each with value and unit. The run is correct when no
// operation or output check failed, the metrics measured are exactly the
// declared ones, and (end-to-end metrics are chosen never to be 0) none
// of them is 0.
func driverLine(res *result, decls []metric, nonZero bool) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0 && res.Attempted > 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, m := range decls {
		v, ok := res.Metrics[m.Name]
		if !ok || (nonZero && v == 0) {
			out.Correct = false
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	if len(res.Metrics) != len(decls) { // every declared one is present, so any more are undeclared
		out.Correct = false
	}
	line, _ := json.Marshal(out)
	return string(line), out.Correct
}

// printHeader records the environment the numbers were taken in.
func printHeader(w io.Writer, o options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision" && len(s.Value) >= 12:
				commit = s.Value[:12]
			case s.Key == "vcs.modified" && s.Value == "true":
				defer func() { fmt.Fprintln(w, "# the working tree had uncommitted changes") }()
			}
		}
	}
	fmt.Fprintf(w, "# revelio benchmark: commit %s, %s %s/%s, nproc %d, GOMAXPROCS %d\n",
		commit, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "# traffic is host loopback, zero injected RTT; %d nodes, %d workers, one connection each\n",
		fleetNodes, runtime.NumCPU())
	fmt.Fprintf(w, "# seed %d; warm-up %v, then %d rounds of %v: open loop, closed loop, probes\n",
		o.seed, warmUp, rounds, secs(float64(o.seconds)/rounds))
}
