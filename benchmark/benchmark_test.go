package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// None of these tests asserts on wall-clock time (ROADMAP item 0): they
// cover the harness's own arithmetic, its declarations, and — once, on a
// live system — that every op passes its own output checks.

func TestPercentile(t *testing.T) {
	vs := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {1, 100}, {0.01, 10}, {0.1, 10}, {0.11, 20}} {
		if got := percentile(vs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, // fewer than ten samples beyond the median
		{20, 0.5}, {99, 0.5},
		{100, 0.9}, {999, 0.9},
		{1000, 0.99}, // exactly ten beyond p99
		{9999, 0.99}, {10000, 0.999}, {100000, 0.9999}, {5000000, 0.9999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	tm := summarize([]int64{3e6, 1e6, 2e6})
	if tm.N != 3 || tm.P50ms != 2 || tm.TailQ != 0 {
		t.Errorf("summarize = %+v", tm)
	}
}

func TestQuantileMatchesPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(vs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	st := steadiness([]float64{100, 110, 100, 110, 100, 110})
	if st.min != 100 || st.max != 110 || st.median != 105 {
		t.Errorf("steadiness = %+v", st)
	}
	if got := st.setGap; got < 0.0999 || got > 0.1001 {
		t.Errorf("alternating sets differ by %v, want 0.10", got)
	}
}

func TestQuietTakesTheQuantileOnTheBetterSide(t *testing.T) {
	// Position 0.15·11 = 1.65 from either end of 1..10.
	vs := []float64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10}
	if got := quiet(vs, "lower"); math.Abs(got-1.65) > 1e-12 {
		t.Errorf("quiet(lower) = %v, want 1.65", got)
	}
	if got := quiet(vs, "higher"); math.Abs(got-9.35) > 1e-12 {
		t.Errorf("quiet(higher) = %v, want 9.35", got)
	}
	if vs[0] != 5 {
		t.Error("quiet reordered its argument")
	}
	// Seven slices of ten slowed by a neighbour leave a time where it was.
	calm := []float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}
	busy := []float64{2, 3, 2, 3, 3, 2, 3, 3, 3, 3}
	if quiet(busy, "lower") != quiet(calm, "lower") {
		t.Errorf("quiet moved from %v to %v under one-sided noise", quiet(calm, "lower"), quiet(busy, "lower"))
	}
	if quiet(nil, "lower") != 0 {
		t.Error("quiet of nothing is not 0")
	}
	// A machine a tenth faster than the reference shows shorter times and
	// higher rates than the reference machine would.
	if got := atReferenceSpeed(2, "lower", 1.1); math.Abs(got-2.2) > 1e-12 {
		t.Errorf("a time of 2 at speed 1.1 = %v at the reference speed, want 2.2", got)
	}
	if got := atReferenceSpeed(1100, "higher", 1.1); math.Abs(got-1000) > 1e-9 {
		t.Errorf("a rate of 1100 at speed 1.1 = %v at the reference speed, want 1000", got)
	}
}

func TestFinishBringsQuietValuesToTheReferenceSpeed(t *testing.T) {
	res := newResult("steady", 1)
	res.observe(referenceSlices, 1.1*referenceRate, 1.1*referenceRate, 1.1*referenceRate)
	res.observe("rps", 1100, 1100)
	res.observe("read_p50_ms", 2, 2)
	res.observe("p50_ms", 1, 1)
	res.observe(openServiceSlices, 0.4, 0.4)
	res.finish(&generator{})
	// The lateness share of p50_ms, 0.6 ms, stays; the service share scales.
	for name, want := range map[string]float64{"rps": 1000, "read_p50_ms": 2.2, "p50_ms": 0.6 + 0.44} {
		if got := res.Metrics[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v at the reference speed, want %v", name, got, want)
		}
	}
	if math.Abs(res.Speed-1.1) > 1e-12 || len(res.Metrics) != 3 {
		t.Errorf("speed %v, metrics %v", res.Speed, res.Metrics)
	}
}

func TestWindowFilesEventsBySlice(t *testing.T) {
	w := window{start: 1000, length: int64(2 * sliceLen)}
	if w.slices() != 2 {
		t.Fatalf("%d slices in two slice lengths", w.slices())
	}
	half := int64(sliceLen)
	got := w.p50s([]obs{
		{at: 999, ns: 9e6},                                                       // before the window
		{at: 1000, ns: 3e6}, {at: 1001, ns: 1e6}, {at: 1000 + half - 1, ns: 2e6}, // first slice: median 2 ms
		{at: 1000 + half, ns: 5e6},   // second slice
		{at: 1000 + 2*half, ns: 9e6}, // past the end
	})
	if !reflect.DeepEqual(got, []float64{2, 5}) {
		t.Errorf("slice medians = %v, want [2 5]", got)
	}
	if got := (window{0, int64(sliceLen)}).p50s(nil); len(got) != 0 {
		t.Errorf("an empty slice yields %v", got)
	}
}

func TestPlanSplitsARound(t *testing.T) {
	const seconds = 30
	for _, wl := range workloads {
		pl := planFor(wl, seconds)
		sum := pl.open + pl.closed + pl.reference
		for _, d := range pl.probes {
			sum += d
		}
		if want := time.Duration(seconds) * time.Second / rounds; sum < want-time.Microsecond || sum > want+time.Microsecond {
			t.Errorf("%s: a round takes %v, want %v", wl.name, sum, want)
		}
		if d := 2*pl.open - 3*pl.closed; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("%s: open %v and closed %v are not 3:2", wl.name, pl.open, pl.closed)
		}
		own := map[string]probe{"sessions": probeSessions, "pad": probePad, "churn": probeChurn}
		for p, d := range pl.probes {
			if o, has := own[wl.name]; (has && probe(p) == o) != (d == 0) {
				t.Errorf("%s: probe %d lasts %v", wl.name, p, d)
			}
		}
	}
}

// fakeClock is the generator's time seam: sleeping and operating both
// just move it forward.
type fakeClock struct{ now int64 }

func TestOpenLoopAccountingAgainstFakeClock(t *testing.T) {
	clock := &fakeClock{now: 1000}
	g := &generator{
		workers: []*worker{{}},
		now:     func() int64 { return clock.now },
		sleep:   func(ns int64) { clock.now += ns },
	}
	// 1000 arrivals per second for 5 ms: due at 0, 1, 2, 3, 4 ms after the
	// start. Service takes 0.5 ms, except the second op, which takes 2.7 ms
	// and so makes the third and fourth late.
	took := []int64{500e3, 2700e3, 500e3, 500e3, 500e3}
	p := g.open(1000, 5*time.Millisecond, func(_ *worker, id int64) error {
		clock.now += took[id]
		if id == 4 {
			return errors.New("checked output differs")
		}
		return nil
	})
	if len(p.samples) != 5 {
		t.Fatalf("%d samples, want 5", len(p.samples))
	}
	start := p.samples[0].due
	want := []struct{ due, late, latency int64 }{
		{0, 0, 500e3},
		{1e6, 0, 2700e3},
		{2e6, 1700e3, 2200e3}, // sent when op 1 completed, at 3.7 ms
		{3e6, 1200e3, 1700e3}, // sent at 4.2 ms
		{4e6, 700e3, 1200e3},  // sent at 4.7 ms
	}
	for i, s := range p.samples {
		if s.due-start != want[i].due || lateness(s) != want[i].late || latency(s) != want[i].latency {
			t.Errorf("arrival %d: due %d late %d latency %d, want %+v",
				i, s.due-start, lateness(s), latency(s), want[i])
		}
		if service(s) != latency(s)-lateness(s) {
			t.Errorf("arrival %d: service %d is not latency − lateness", i, service(s))
		}
	}
	if g.attempted.Load() != 5 || g.failed.Load() != 1 || g.first() == nil {
		t.Errorf("attempted %d failed %d first %v, want 5, 1 and an error",
			g.attempted.Load(), g.failed.Load(), g.first())
	}
}

func TestClosedLoopSendsOnCompletion(t *testing.T) {
	clock := &fakeClock{}
	g := &generator{
		workers: []*worker{{}},
		now:     func() int64 { return clock.now },
		sleep:   func(int64) { t.Error("the closed loop never sleeps") },
	}
	p := g.closed(10*time.Millisecond, func(*worker, int64) error { clock.now += 3e6; return nil })
	if len(p.samples) != 4 { // sent at 0, 3, 6 and 9 ms
		t.Fatalf("%d samples, want 4", len(p.samples))
	}
	for i, s := range p.samples {
		if s.due != s.sent || s.sent != int64(i)*3e6 || service(s) != 3e6 {
			t.Errorf("op %d: %+v", i, s)
		}
	}
}

func TestStallsPerReplacement(t *testing.T) {
	samples := []sample{
		{due: 0, sent: 0, done: 10},    // before everything
		{due: 90, sent: 90, done: 130}, // runs into the first replacement
		{due: 110, sent: 150, done: 160},
		{due: 300, sent: 300, done: 305}, // between replacements
		{due: 400, sent: 400, done: 420}, // touches the second one's start
	}
	ivs := []interval{{100, 200}, {420, 500}, {900, 950}}
	got := stalls(samples, ivs)
	// First: max(40, 50); second: 20; third overlaps nothing and is left out.
	if want := []obs{{100, 50}, {420, 20}}; !reflect.DeepEqual(got, want) {
		t.Errorf("stalls = %v, want %v", got, want)
	}
	if got := within(ivs, 100, 500); len(got) != 2 {
		t.Errorf("within = %v, want the first two", got)
	}
	if got := extents(ivs); !reflect.DeepEqual(got, []obs{{100, 100}, {420, 80}, {900, 50}}) {
		t.Errorf("extents = %v", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	parent := span{start: 100, end: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"serial", []span{{start: 110, end: 120}, {start: 150, end: 170}}, 70},
		{"overlapping", []span{{start: 110, end: 150}, {start: 140, end: 160}}, 50},
		{"contained", []span{{start: 110, end: 190}, {start: 120, end: 130}}, 20},
		{"clipped", []span{{start: 90, end: 110}, {start: 195, end: 250}}, 85},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAnalyzeNestingAndSum(t *testing.T) {
	// Two ops. The first is a pad write: op ⊃ serve ⊃ acquire ⊃ app ⊃ write.
	// The second makes two requests, as a session does.
	op1, op2 := spanID(2, layerOp), spanID(4, layerOp)
	spans := []span{
		{id: op1, start: 0, end: 100},
		{id: spanID(6, layerServe), parent: op1, start: 10, end: 90},
		{id: spanID(6, layerAcquire), parent: parentOf(spanID(6, layerAcquire)), start: 20, end: 80},
		{id: spanID(6, layerApp), parent: parentOf(spanID(6, layerApp)), start: 30, end: 70},
		{id: spanID(6, layerCryptWrite), parent: parentOf(spanID(6, layerCryptWrite)), start: 40, end: 60},
		{id: op2, start: 200, end: 300},
		{id: spanID(8, layerServe), parent: op2, start: 210, end: 230},
		{id: spanID(10, layerServe), parent: op2, start: 250, end: 280},
	}
	b, err := analyze(spans)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.check(); err != nil {
		t.Error(err)
	}
	if b.ops != 2 || b.opNS != 200 || b.counts[layerServe] != 3 || b.counts[layerCryptWrite] != 1 {
		t.Errorf("breakdown = %+v", b)
	}
	want := [numLayers]int64{layerOp: 20 + 50, layerServe: 20 + 20 + 30, layerAcquire: 20, layerApp: 20, layerCryptWrite: 20}
	if b.selfNS != want {
		t.Errorf("self times %v, want %v", b.selfNS, want)
	}
	if got := b.meanSelfUS(layerServe); got != 0.035 {
		t.Errorf("mean gateway.serve self time %v us, want 0.035", got)
	}

	escaped := append([]span(nil), spans...)
	escaped[4].end = 75 // the write now outlasts the app span
	if _, err := analyze(escaped); err == nil || !strings.Contains(err.Error(), "leaves its parent") {
		t.Errorf("a child that outlasts its parent: err = %v", err)
	}
	if _, err := analyze(spans[1:]); err == nil || !strings.Contains(err.Error(), "no parent") {
		t.Errorf("a child without its parent: err = %v", err)
	}
	if _, err := analyze(append(spans, spans[0])); err == nil {
		t.Error("a span recorded twice went unnoticed")
	}
}

func TestSpanIDsCarryWorkerAndParent(t *testing.T) {
	tr := newTracer(3)
	tr.on.Store(true)
	seen := map[int64]bool{}
	for k := 0; k < 3; k++ {
		for i := 0; i < 4; i++ {
			req := tr.number(k)
			if seen[req] || tr.worker(req) != k {
				t.Fatalf("number(%d) = %d: seen %v, worker %d", k, req, seen[req], tr.worker(req))
			}
			seen[req] = true
		}
	}
	app := spanID(7, layerApp)
	if parentOf(app) != spanID(7, layerAcquire) || parentOf(spanID(7, layerAcquire)) != spanID(7, layerServe) ||
		parentOf(spanID(7, layerCryptRead)) != app || parentOf(spanID(7, layerRootfsRead)) != app {
		t.Error("parentOf does not follow serve ⊃ acquire ⊃ app ⊃ storage")
	}
	if got := goid(); got <= 0 {
		t.Errorf("goid() = %d", got)
	}
	var off *tracer
	if off.begin() != 0 {
		t.Error("a nil tracer records")
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func TestDeclarationsEqualBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default is %d", decl.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", decl.Paths)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(decl.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if d := decl.Workloads[i]; d.Name != wl.name || d.Why != workloadWhy[wl.name] || d.Why == "" || len(d.Why) > 200 {
			t.Errorf("workload %d: declared %+v, run %q (%q)", i, d, wl.name, workloadWhy[wl.name])
		}
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", decl.PerLayer, perLayer)
	}
	names := map[string]bool{}
	setup := false
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if names[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		names[m.Name] = true
		setup = setup || m == metric{"setup_s", "s", "lower", m.Bound}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestDriverLineEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	res := &result{Workload: "steady", Attempted: 10, Metrics: map[string]float64{}}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = 1.5
	}
	line, correct := driverLine(res, endToEnd, true)
	if !correct {
		t.Errorf("a complete result is not correct: %s", line)
	}
	var out struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for name := range out.Metrics {
		got = append(got, name)
	}
	for _, m := range endToEnd {
		want = append(want, m.Name)
		if out.Metrics[m.Name].Unit != m.Unit {
			t.Errorf("%s: unit %q, want %q", m.Name, out.Metrics[m.Name].Unit, m.Unit)
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) || !out.Correct || out.Attempted != 10 {
		t.Errorf("driver line %s", line)
	}

	res.Metrics["undeclared"] = 1
	if _, correct := driverLine(res, endToEnd, true); correct {
		t.Error("an undeclared metric went unnoticed")
	}
	delete(res.Metrics, "undeclared")
	res.Metrics["rps"] = 0
	if _, correct := driverLine(res, endToEnd, true); correct {
		t.Error("an end-to-end metric of 0 went unnoticed")
	}
	res.Metrics["rps"] = 1
	res.Failed = 1
	if _, correct := driverLine(res, endToEnd, true); correct {
		t.Error("a failed operation went unnoticed")
	}
}

// TestOpsOnLiveSystem stands the real system up once, traced, and sends
// a few operations of every kind through it: each op's own output checks
// must pass, a replaced fleet must still serve, and the spans recorded
// on the way must nest and add up.
func TestOpsOnLiveSystem(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	tr := newTracer(runtime.NumCPU())
	e, err := standUp(ctx, 7, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if len(e.slots) == 0 || len(e.assets) == 0 {
		t.Fatalf("%d slots, %d assets", len(e.slots), len(e.assets))
	}
	g, w := e.gen, e.workers[0]
	tr.on.Store(true)
	for id := 0; id < 24; id++ { // enough ids to draw every pad class
		g.do(w, padOp)
	}
	g.do(w, steadyOp)
	g.do(w, sessionOp)
	spans := tr.take()
	if err := g.first(); err != nil {
		t.Fatalf("%d of %d ops failed, first: %v", g.failed.Load(), g.attempted.Load(), err)
	}
	b, err := analyze(spans)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.check(); err != nil {
		t.Error(err)
	}
	if b.ops != 26 || b.counts[layerCryptWrite] == 0 || b.counts[layerCryptRead] == 0 || b.counts[layerRootfsRead] == 0 {
		t.Errorf("breakdown %+v", b)
	}
	// 24 pad requests, one steady, and a session's bundle fetch plus five pages.
	if want := 24 + 1 + 2 + sessionFollowUps; b.counts[layerServe] != want || b.counts[layerAcquire] != want || b.counts[layerApp] != want-1 {
		t.Errorf("serve/acquire/app spans %d/%d/%d, want %d/%d/%d", b.counts[layerServe], b.counts[layerAcquire], b.counts[layerApp], want, want, want-1)
	}
	if len(w.classes[classAttest]) != 1 || len(w.classes[classFollow]) != sessionFollowUps {
		t.Errorf("session observed %d attested and %d follow-up navigations", len(w.classes[classAttest]), len(w.classes[classFollow]))
	}

	ref, err := startReference()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	if err := e.useReference(ref); err != nil {
		t.Fatal(err)
	}
	if p := g.closed(time.Millisecond, referenceOp); len(p.samples) == 0 || g.first() != nil {
		t.Errorf("%d reference requests, first error %v", len(p.samples), g.first())
	}

	if _, err := e.f.ReplaceNode(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.resettle(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 8; id++ {
		g.do(w, padOp)
	}
	if err := g.first(); err != nil {
		t.Errorf("after a replacement: %v", err)
	}
	if st := e.gw.Stats(); st.Retries != e.calmRetries || st.SheddedRequests != e.calmShed {
		t.Errorf("gateway retried %d, shed %d since the fleet settled", st.Retries-e.calmRetries, st.SheddedRequests-e.calmShed)
	}
}
