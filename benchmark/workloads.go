package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"revelio/internal/browser"
	"revelio/internal/webext"
)

// workload is one traffic mix. Rates and the phase split are constants
// of the benchmark, the same on both sides of any comparison.
type workload struct {
	name string
	// rate is the open-loop arrival rate in operations per second.
	rate float64
	op   opFunc
	// churn runs a ReplaceNode loop in the background for the whole run.
	churn bool
}

var workloads = []workload{
	{name: "steady", rate: 8000, op: steadyOp},
	{name: "sessions", rate: 100, op: sessionOp},
	{name: "pad", rate: 1000, op: padOp},
	{name: "churn", rate: 2000, op: steadyOp, churn: true},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

const (
	warmUp     = 2 * time.Second
	setUps     = 9
	churnPause = 50 * time.Millisecond
	// A run's --seconds are cut into rounds, and every round measures
	// every end-to-end metric: the workload's open loop, its closed loop,
	// and the probes (see round) for the op classes it does not own. Each
	// of these phases is cut into slices of about sliceLen, every slice
	// yields one value per metric it measures, and a metric's reported
	// value is the quiet value of all its slices of the run (see quiet).
	// Each metric thus samples the whole run, and a stretch in
	// which a neighbour slows the machine costs the slices it falls in,
	// not the metric.
	rounds   = 10
	sliceLen = 140 * time.Millisecond
	// Of a round, the open and the closed loop take these shares (3:2),
	// the probes theirs, split by probeWeights among the probes the
	// workload needs, and the reference server the rest.
	openShare   = 0.27
	closedShare = 0.18
	probeShare  = 0.45
	refShare    = 0.10
	// referenceSlices names the reference server's rate among a result's
	// slices. referenceRate is the rate at which the machine's speed
	// counts as 1: what the reference server reaches in an average hour
	// on the machine the benchmark was written on, so that reported
	// values stay near measured ones.
	referenceSlices = "reference_rps"
	referenceRate   = 50000.0
	// openServiceSlices names the open loop's service time (done − sent)
	// among a result's slices: the share of p50_ms that the machine's
	// speed scales.
	openServiceSlices = "open_service_ms"
	// settle is the untimed closed-loop traffic after a fleet's nodes were
	// replaced, in which the gateway re-establishes its upstream
	// connections.
	settle           = 100 * time.Millisecond
	churnProbeRate   = 2000
	tracedPhaseShare = 0.2
	sessionFollowUps = 4
)

// probe is a stretch of a round that measures op classes the workload
// does not own.
type probe int

const (
	probeSessions probe = iota
	probePad
	probeChurn
	numProbes
)

// probeWeights split a round's probe time: replacements are the rarest
// events (about 14 a second), so their probe gets the largest part.
var probeWeights = [numProbes]float64{3, 3, 4}

// plan is how one round's time is divided.
type plan struct {
	open, closed time.Duration
	probes       [numProbes]time.Duration // 0: the workload measures that class itself
	reference    time.Duration
}

// planFor divides seconds/rounds for wl: a workload skips the probe for
// the classes its own phases measure, and the others share its time.
func planFor(wl workload, seconds int) plan {
	round := float64(seconds) / rounds
	need := [numProbes]bool{wl.name != "sessions", wl.name != "pad", !wl.churn}
	total := 0.0
	for p, n := range need {
		if n {
			total += probeWeights[p]
		}
	}
	pl := plan{open: secs(round * openShare), closed: secs(round * closedShare), reference: secs(round * refShare)}
	for p, n := range need {
		if n {
			pl.probes[p] = secs(round * probeShare * probeWeights[p] / total)
		}
	}
	return pl
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func share(seconds int, s float64) time.Duration { return secs(float64(seconds) * s) }

// steadyOp is GET / over the worker's keep-alive connection: the gateway
// hot path and net/http do nearly all the work.
func steadyOp(w *worker, _ int64) error { return w.get("/", okBody) }

// referenceOp is steadyOp against the reference server instead of the
// system: the same client, the same two bytes, none of the repository.
func referenceOp(w *worker, _ int64) error { return w.doVia(w.ref, w.refGet, okBody) }

// sessionOp is one new end-user web session: a fresh browser and
// extension, one attested navigation (nonce-bound bundle fetched through
// the gateway, verified, key-bound), then same-session navigations that
// only validate the connection. Every navigation dials a new TLS
// connection, as browser.Get does.
func sessionOp(w *worker, _ int64) error {
	e := w.e
	b := browser.New(e.roots, 0)
	b.Resolve(domain, w.addr)
	ext := webext.New(b, e.f.Deployment().Verifier)
	ext.RegisterSite(domain, e.golden)
	for i := 0; i <= sessionFollowUps; i++ {
		t0 := time.Now()
		resp, m, err := ext.Navigate(e.ctx, domain, "/")
		if err != nil {
			return fmt.Errorf("session navigation %d: %w", i, err)
		}
		if first := i == 0; m.Attested != first {
			return fmt.Errorf("session navigation %d: attested=%v", i, m.Attested)
		}
		if err := checkResponse("session GET /", resp.Status, resp.Body, okBody); err != nil {
			return err
		}
		if i == 0 {
			w.observe(classAttest, t0)
		} else {
			w.observe(classFollow, t0)
		}
	}
	return nil
}

// padOp is the stateful CryptPad case: 25 % pad writes (dm-crypt write),
// 50 % pad reads, 25 % rootfs assets (dm-verity), chosen by the seed.
func padOp(w *worker, id int64) error {
	e := w.e
	r := splitmix(e.seed, uint64(id))
	pick := int(r >> 8 & 0xffffff)
	t0 := time.Now()
	switch r & 3 {
	case 0:
		s := pick % len(e.slots)
		if err := w.put(e.slotPaths[s], e.slots[s]); err != nil {
			return err
		}
		w.observe(classWrite, t0)
	case 1, 2:
		s := pick % len(e.slots)
		if err := w.get(e.slotPaths[s], e.slots[s]); err != nil {
			return err
		}
		w.observe(classRead, t0)
	default:
		a := pick % len(e.assets)
		if err := w.get(e.assetPaths[a], e.assets[a]); err != nil {
			return err
		}
		w.observe(classAsset, t0)
	}
	return nil
}

// churner replaces the fleet's oldest node over and over, pausing
// churnPause between replacements, and keeps each one's extent.
type churner struct {
	stop chan struct{}
	done chan struct{}
	ivs  []interval
}

func startChurn(e *env) *churner {
	c := &churner{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		pause := time.NewTimer(0)
		defer pause.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-pause.C:
			}
			start := e.gen.now()
			e.gen.attempted.Add(1)
			if _, err := e.f.ReplaceNode(e.ctx, 0); err != nil {
				e.gen.fail(fmt.Errorf("replace node: %w", err))
			}
			c.ivs = append(c.ivs, interval{start, e.gen.now()})
			pause.Reset(churnPause)
		}
	}()
	return c
}

// halt stops the loop, waits for the replacement in flight and returns
// every replacement's extent.
func (c *churner) halt() []interval {
	close(c.stop)
	<-c.done
	return c.ivs
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window is a stretch of the generator's clock that is cut into slices.
type window struct {
	start, length int64
}

func windowOf(p phase) window { return window{p.start, p.elapsed} }

// slices is how many slices of about sliceLen the window holds.
func (w window) slices() int {
	return max(1, int((w.length+int64(sliceLen)/2)/int64(sliceLen)))
}

// p50s files every event in the slice its time falls in and returns
// each non-empty slice's median duration in ms.
func (w window) p50s(events []obs) []float64 {
	n := w.slices()
	cut := make([][]int64, n)
	for _, o := range events {
		if i := int((o.at - w.start) * int64(n) / max(w.length, 1)); i >= 0 && i < n {
			cut[i] = append(cut[i], o.ns)
		}
	}
	out := make([]float64, 0, n)
	for _, ns := range cut {
		if len(ns) > 0 {
			sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
			out = append(out, ms(percentile(ns, 0.5)))
		}
	}
	return out
}

// events turns samples into timed events: f's duration, at the due time.
func events(samples []sample, f func(sample) int64) []obs {
	out := make([]obs, len(samples))
	for i, s := range samples {
		out[i] = obs{s.due, f(s)}
	}
	return out
}

// lengths are the durations of events.
func lengths(events []obs) []int64 {
	out := make([]int64, len(events))
	for i, o := range events {
		out[i] = o.ns
	}
	return out
}

// cpuMeter reads the process's CPU time at every slice boundary of a
// closed-loop phase.
type cpuMeter struct {
	g     *generator
	stopC chan struct{}
	done  chan struct{}
	at    []int64         // generator time of each reading
	cpu   []time.Duration // CPU time at each reading
}

func startCPUMeter(g *generator) *cpuMeter {
	m := &cpuMeter{g: g, stopC: make(chan struct{}), done: make(chan struct{})}
	m.read()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		for {
			select {
			case <-m.stopC:
				return
			case <-tick.C:
				m.read()
			}
		}
	}()
	return m
}

func (m *cpuMeter) read() {
	m.at = append(m.at, m.g.now())
	m.cpu = append(m.cpu, cpuTime())
}

// stop ends the readings and returns, per slice between two readings,
// the ops completed per second and the CPU microseconds per completed
// op. The stretch after the last tick counts when it is at least half a
// slice.
func (m *cpuMeter) stop(p phase) (rps, cpuPerOp []float64) {
	close(m.stopC)
	<-m.done
	if last := m.at[len(m.at)-1]; m.g.now()-last >= int64(sliceLen)/2 {
		m.read()
	}
	done := series(p.samples, func(s sample) int64 { return s.done })
	sort.Slice(done, func(a, b int) bool { return done[a] < done[b] })
	for i := 0; i+1 < len(m.at); i++ {
		lo := sort.Search(len(done), func(j int) bool { return done[j] >= m.at[i] })
		hi := sort.Search(len(done), func(j int) bool { return done[j] >= m.at[i+1] })
		if ops := float64(hi - lo); ops > 0 {
			rps = append(rps, ops/(float64(m.at[i+1]-m.at[i])/1e9))
			cpuPerOp = append(cpuPerOp, us(int64(m.cpu[i+1]-m.cpu[i]))/ops)
		}
	}
	return rps, cpuPerOp
}

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	FirstErr  string             `json:"first_error,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Timings   map[string]timing  `json:"timings"`
	// Slices holds, per end-to-end metric and for the reference server's
	// rate, the value each slice measured. Speed is the machine's speed
	// during the run, as the reference server shows it; Metrics has each
	// metric's quiet value at the reference speed (see finish).
	Slices map[string][]float64 `json:"slices,omitempty"`
	Speed  float64              `json:"speed,omitempty"`

	pooled map[string][]int64 // duration series gathered over all rounds, by timing name
}

func newResult(name string, seed uint64) *result {
	return &result{Workload: name, Seed: seed, Metrics: map[string]float64{}, Timings: map[string]timing{},
		Slices: map[string][]float64{}, pooled: map[string][]int64{}}
}

// time files a duration series under name and returns its median in ms.
func (r *result) time(name string, ns []int64) float64 {
	t := summarize(ns)
	r.Timings[name] = t
	return t.P50ms
}

// observe records the slice values of an end-to-end metric.
func (r *result) observe(name string, vs ...float64) {
	r.Slices[name] = append(r.Slices[name], vs...)
}

// pool gathers durations for the timing line of the report.
func (r *result) pool(name string, ns []int64) {
	r.pooled[name] = append(r.pooled[name], ns...)
}

// observeP50s records the slice medians of the events in w as metric and
// pools the events under the timing name.
func (r *result) observeP50s(metric, timing string, w window, events []obs) {
	r.pool(timing, lengths(events))
	r.observe(metric, w.p50s(events)...)
}

// finish reduces the slices to the reported metrics, files the pooled
// timings and copies the generator's failure accounting.
//
// A metric's value is the quiet value of its slices, brought to the
// reference speed: the machine this runs on is a share of a host whose
// speed for this kind of work — system calls, wake-ups between CPUs —
// drifts by a quarter within an hour and stays low for minutes at a time,
// every metric moving with it in the same proportion, and the reference
// server's rate with them (README.md, "Steadiness", has the figures). A
// time or a cost is therefore multiplied, and a rate divided, by the
// rate the reference server reached in the same run over referenceRate.
// Of p50_ms only the service share is: the rest is the generator waking
// late for an arrival, which a faster machine does not shorten (on
// steady and churn it is the larger part, and it moves against the
// speed if at all).
func (r *result) finish(g *generator) {
	if ref := r.Slices[referenceSlices]; len(ref) > 0 {
		r.Speed = quiet(ref, "higher") / referenceRate
		for _, m := range endToEnd {
			vs, ok := r.Slices[m.Name]
			switch {
			case !ok:
			case m.Name == "p50_ms":
				service := quiet(r.Slices[openServiceSlices], m.Better)
				r.Metrics[m.Name] = quiet(vs, m.Better) - service + atReferenceSpeed(service, m.Better, r.Speed)
			default:
				r.Metrics[m.Name] = atReferenceSpeed(quiet(vs, m.Better), m.Better, r.Speed)
			}
		}
	}
	for name, ns := range r.pooled {
		r.time(name, ns)
	}
	r.Attempted, r.Failed = g.attempted.Load(), g.failed.Load()
	if err := g.first(); err != nil {
		r.FirstErr = err.Error()
	}
}

// atReferenceSpeed converts a value measured on a machine of the given
// speed to the one a machine of speed 1 would have shown.
func atReferenceSpeed(v float64, better string, speed float64) float64 {
	if better == "higher" {
		return v / speed
	}
	return v * speed
}

// extents turns intervals into timed events: their length, at their start.
func extents(ivs []interval) []obs {
	out := make([]obs, len(ivs))
	for i, iv := range ivs {
		out[i] = obs{iv.start, iv.end - iv.start}
	}
	return out
}

// standUps stands the system up setUps times, tearing down all but the
// last, and returns that one and each stand-up's seconds.
func standUps(ctx context.Context, seed uint64) (*env, []float64, error) {
	var e *env
	took := make([]float64, 0, setUps)
	for i := 0; i < setUps; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = standUp(ctx, seed, nil); err != nil {
			return nil, nil, fmt.Errorf("stand-up %d: %w", i, err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return e, took, nil
}

// runUntraced is the run end-to-end metrics come from: the timed
// stand-ups, a warm-up, and then the rounds.
func runUntraced(ctx context.Context, wl workload, seed uint64, seconds int) (*result, error) {
	res := newResult(wl.name, seed)
	e, setup, err := standUps(ctx, seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	res.observe("setup_s", setup...)
	g := e.gen
	ref, err := startReference()
	if err != nil {
		return nil, fmt.Errorf("reference server: %w", err)
	}
	defer ref.close()
	if err := e.useReference(ref); err != nil {
		return nil, err
	}

	var churn *churner
	if wl.churn {
		churn = startChurn(e)
	}
	g.closed(warmUp, wl.op)
	pl := planFor(wl, seconds)
	for r := 0; r < rounds; r++ {
		if churn, err = round(e, res, wl, pl, churn, r == rounds-1); err != nil {
			return nil, err
		}
	}
	res.finish(g)
	return res, nil
}

// round measures every end-to-end metric. The workload's own open
// and closed loop come first. The driver wants every metric from every
// workload, so the op classes a workload does not own are measured by
// probes on the same fleet: closed-loop sessions, the closed-loop pad
// mix, and open-loop steady traffic under a ReplaceNode loop. A class
// metric is at home on the workload that owns it; elsewhere it shows the
// same code on a fleet with another history. On churn the replacement
// loop runs through the workload's own phases and rests during the
// probes; round returns the loop it restarted for the next round.
func round(e *env, res *result, wl workload, pl plan, churn *churner, last bool) (*churner, error) {
	g := e.gen
	open := g.open(wl.rate, pl.open, wl.op)
	res.observeP50s("p50_ms", "open.latency", windowOf(open), events(open.samples, latency))
	res.observeP50s(openServiceSlices, "open.service", windowOf(open), events(open.samples, service))
	res.pool("open.late", series(open.samples, lateness))

	meter := startCPUMeter(g)
	closed := g.closed(pl.closed, wl.op)
	rps, cpuPerOp := meter.stop(closed)
	res.observe("rps", rps...)
	res.observe("cpu_us_per_op", cpuPerOp...)
	res.pool("closed.service", series(closed.samples, service))

	// classIn[c] is the phase class c was measured in this round.
	var classIn [numClasses]phase
	for c := range classIn {
		classIn[c] = closed
	}
	churned, replaced := open, []interval(nil)
	if churn != nil {
		replaced = churn.halt()
		if err := e.resettle(); err != nil {
			return nil, err
		}
	}
	if d := pl.probes[probeSessions]; d > 0 {
		p := g.closed(d, sessionOp)
		classIn[classAttest], classIn[classFollow] = p, p
	}
	if d := pl.probes[probePad]; d > 0 {
		p := g.closed(d, padOp)
		classIn[classWrite], classIn[classRead], classIn[classAsset] = p, p, p
	}
	if d := pl.probes[probeChurn]; d > 0 {
		// Off churn, the gateway has had no reason to retry or shed since
		// the last replacement.
		if st := e.gw.Stats(); st.Retries != e.calmRetries || st.SheddedRequests != e.calmShed {
			g.fail(fmt.Errorf("gateway retried %d and shed %d requests on %s", st.Retries-e.calmRetries, st.SheddedRequests-e.calmShed, wl.name))
		}
		probe := startChurn(e)
		churned = g.open(churnProbeRate, d, steadyOp)
		replaced = probe.halt()
		if err := e.resettle(); err != nil {
			return nil, err
		}
	}
	for c, name := range classNames {
		res.observeP50s(name+"_p50_ms", name, windowOf(classIn[c]), classIn[c].classes[c])
	}
	// Replacements count where they lie wholly inside the open loop they
	// ran under.
	w := windowOf(churned)
	replaced = within(replaced, w.start, w.start+w.length)
	res.observeP50s("join_p50_ms", "join", w, extents(replaced))
	res.observeP50s("stall_p50_ms", "stall", w, stalls(churned.samples, replaced))

	// The machine's speed, from the reference server (see result.finish).
	meter = startCPUMeter(g)
	ref := g.closed(pl.reference, referenceOp)
	refRPS, _ := meter.stop(ref)
	res.observe(referenceSlices, refRPS...)
	res.pool("reference.service", series(ref.samples, service))
	if wl.churn && !last {
		return startChurn(e), nil
	}
	return nil, nil
}

// itoaPaths renders prefix0, prefix1, … once, so ops build no strings.
func itoaPaths(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}
