package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeat runs the untraced benchmark o.repeat times, each in a child
// process with the next seed, and judges the benchmark's own steadiness:
// per workload and end-to-end metric it prints min, median, max, the
// relative range and the interquartile spread, then splits the runs into
// two alternating sets and fails if their medians differ by more than
// the metric's bound. When the runs were full sequences it also runs
// each workload alone once and fails if a value other than setup_s falls
// outside what the sequence runs saw, widened by the bound.
func repeat(o options, selected []workload, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	child := func(seed uint64, workload string) ([]*result, error) {
		args := []string{"-json", "-trace", "0", "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(o.seconds)}
		if workload != "" {
			args = append(args, "-workload", workload)
		}
		var out bytes.Buffer
		cmd := exec.CommandContext(context.Background(), exe, args...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("child %v: %w", args, err)
		}
		var rs []*result
		if err := json.Unmarshal(out.Bytes(), &rs); err != nil {
			return nil, fmt.Errorf("child %v: %w", args, err)
		}
		return rs, nil
	}

	// values[workload][metric] holds one value per run, in run order.
	values := map[string]map[string][]float64{}
	for i := 0; i < o.repeat; i++ {
		rs, err := child(o.seed+uint64(i), o.workload)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		for _, r := range rs {
			if values[r.Workload] == nil {
				values[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				values[r.Workload][name] = append(values[r.Workload][name], v)
			}
		}
		fmt.Fprintf(stdout, "# run %d of %d done\n", i+1, o.repeat)
	}

	ok := true
	for _, wl := range selected {
		fmt.Fprintf(stdout, "workload %s, %d runs\n", wl.name, o.repeat)
		for _, m := range endToEnd {
			vs := values[wl.name][m.Name]
			st := steadiness(vs)
			verdict := "ok"
			if st.setGap > m.Bound {
				verdict, ok = "SETS DIFFER", false
			}
			fmt.Fprintf(stdout, "  %-16s min %12.4f  median %12.4f  max %12.4f %-4s range %5.1f%%  iqr %5.1f%%  sets %5.1f%% (bound %2.0f%%) %s\n",
				m.Name, st.min, st.median, st.max, m.Unit, 100*st.relRange, 100*st.iqr, 100*st.setGap, 100*m.Bound, verdict)
		}
	}
	if o.workload == "" {
		for _, wl := range selected {
			rs, err := child(o.seed+uint64(o.repeat), wl.name)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			for _, m := range endToEnd {
				// A stand-up is faster in a process that has run a workload
				// already and has its memory mapped: in a sequence only the
				// first workload's setup_s is what a run alone shows.
				if m.Name == "setup_s" {
					continue
				}
				st, alone := steadiness(values[wl.name][m.Name]), rs[0].Metrics[m.Name]
				if alone < st.min*(1-m.Bound) || alone > st.max*(1+m.Bound) {
					ok = false
					fmt.Fprintf(stdout, "workload %s alone: %s = %.4f, outside [%.4f, %.4f] widened by %.0f%%\n",
						wl.name, m.Name, alone, st.min, st.max, 100*m.Bound)
				}
			}
		}
		fmt.Fprintln(stdout, "# each workload was also run alone and compared with its runs inside the sequence")
	}
	if !ok {
		return 1
	}
	return 0
}

// steady describes how far repeated values of one metric lie apart.
type steady struct {
	min, median, max float64
	relRange         float64 // (max−min)/median
	iqr              float64 // (Q3−Q1)/median, quartiles as Python's statistics.quantiles(n=4)
	setGap           float64 // |median(even runs) − median(odd runs)| over the smaller of the two
}

func steadiness(vs []float64) steady {
	if len(vs) == 0 {
		return steady{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	st := steady{min: s[0], median: median(s), max: s[len(s)-1]}
	if st.median == 0 {
		return st
	}
	st.relRange = (st.max - st.min) / st.median
	st.iqr = (quantile(s, 0.75) - quantile(s, 0.25)) / st.median
	var a, b []float64
	for i, v := range vs {
		if i%2 == 0 {
			a = append(a, v)
		} else {
			b = append(b, v)
		}
	}
	if ma, mb := median(a), median(b); len(b) > 0 && min(ma, mb) > 0 {
		st.setGap = (max(ma, mb) - min(ma, mb)) / min(ma, mb)
	}
	return st
}

// quantile is the exclusive-method quantile Python's
// statistics.quantiles uses: position q·(n+1) in the sorted values,
// interpolated linearly and clamped to the ends.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}
