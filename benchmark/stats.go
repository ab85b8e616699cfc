package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q ≤ 1) of an ascending slice
// by nearest rank: the smallest value with at least q·n values at or
// below it. An empty slice yields 0.
func percentile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// tailLadder lists the percentiles a timing may be reported at, in
// ascending order, each as the "one in N" share of samples beyond it
// (p99 leaves one in 100), so the support test stays in integers.
var tailLadder = []int{2, 10, 100, 1000, 10000}

// supportedTail returns the highest percentile of tailLadder that has at
// least ten of n samples beyond it, or 0 when even the median has not.
func supportedTail(n int) float64 {
	best := 0.0
	for _, oneIn := range tailLadder {
		if n/oneIn >= 10 {
			best = 1 - 1/float64(oneIn)
		}
	}
	return best
}

// timing is how every duration series is reported: its median, the
// sample count, and the highest percentile the sample supports.
type timing struct {
	N      int     `json:"n"`
	P50ms  float64 `json:"p50_ms"`
	TailQ  float64 `json:"tail_q"`
	Tailms float64 `json:"tail_ms"`
}

// summarize sorts ns in place and reports it as a timing.
func summarize(ns []int64) timing {
	sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
	t := timing{N: len(ns), P50ms: ms(percentile(ns, 0.5))}
	if q := supportedTail(len(ns)); q > 0 {
		t.TailQ, t.Tailms = q, ms(percentile(ns, q))
	}
	return t
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// median returns the middle value of xs (mean of the middle two for an
// even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quietShare is the quantile quiet reports, counted from the better end.
const quietShare = 0.15

// quiet reduces the values an end-to-end metric took in a run's slices
// to the one reported: their quantile quietShare from the better end —
// low for a time or a cost, high for a rate. On a shared machine the
// noise has one sign: a neighbour only ever slows the program. A low
// quantile therefore stays on the program's own figure while most
// slices are disturbed, where a median gives way at half of them; a
// change to the program moves every slice, and the quantile with them.
func quiet(vs []float64, better string) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if better == "higher" {
		return quantile(s, 1-quietShare)
	}
	return quantile(s, quietShare)
}
