// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§6.2–§6.4). Each Run* function
// executes the corresponding workload against the real substrates and
// returns a result whose Render method prints paper-style rows; the
// revelio-bench command below this package and the Benchmark* functions
// in its tests are thin wrappers around these functions.
//
// Absolute numbers differ from the paper — the substrate is a software
// simulation, not an EPYC 7313 testbed — but the comparisons the paper
// makes (which operation dominates boot, how overhead scales with I/O
// size, what the VCEK cache buys) are reproduced in shape.
//
// What the package reproduces is the paper's tables and figures plus
// Table 5 (fleet scalability), as reports whose tests check structure
// and counts, not speed. How fast the gateway data plane and the
// verification plane are is not measured here: that is the repository's
// benchmark (benchmark/, BENCHMARK.json) and its per-layer ladder.
package bench

import (
	"fmt"
	"strings"
	"time"
)

// Sizes used across the I/O experiments.
const (
	KiB = 1024
	MiB = 1024 * KiB
)

// fmtMS renders a duration as fractional milliseconds, the paper's unit.
func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6)
}

// fmtPct renders a ratio as a percentage.
func fmtPct(ratio float64) string {
	return fmt.Sprintf("%.2f", ratio*100)
}

// table renders rows with a header, aligned on tabs.
func table(header []string, rows [][]string) string {
	var b strings.Builder
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteString("\n")
	}
	writeRow(header)
	dashes := make([]string, len(widths))
	for i, w := range widths {
		dashes[i] = strings.Repeat("-", w)
	}
	writeRow(dashes)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
