package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"revelio/internal/fleet"
	"revelio/internal/gateway"
)

// layer names a boundary the traced pass records a span at. All of them
// are reachable from outside the program: the load generator's op, the
// gateway used as an http.Handler, the gateway's Source, and the
// benchmark's own node handler with its calls into storage.
type layer int64

const (
	layerOp         layer = iota // one client operation: the root
	layerServe                   // gateway.ServeHTTP
	layerAcquire                 // Source.Acquire until its release
	layerApp                     // the node handler
	layerCryptWrite              // dmcrypt WriteAt
	layerCryptRead               // dmcrypt ReadAt
	layerRootfsRead              // rootfs ReadFile over dm-verity
	numLayers
)

var layerNames = [numLayers]string{
	"op", "gateway.serve", "fleet.acquire", "app", "dmcrypt.write", "dmcrypt.read", "rootfs.read",
}

// layerSelfMetrics name each layer's mean self time per op. The op's own
// is what is left of it outside gateway.serve: the downstream side.
var layerSelfMetrics = [numLayers]string{
	"trace.downstream_self_us", "gateway.serve_self_us", "fleet.acquire_us", "app.self_us",
	"dmcrypt.write_us", "dmcrypt.read_us", "rootfs.read_us",
}

// span is one timed interval. Its id is req<<3|layer, where req numbers
// the HTTP request (or, for a root, the operation) and names the worker
// that sent it (req mod the worker count): every layer of one request
// derives its id, its parent's and its worker from the number the
// X-Bench-Span header carries, so no table is shared between layers.
type span struct {
	id, parent int64
	start, end int64 // ns since the tracer's epoch
}

func spanID(req int64, l layer) int64 { return req<<3 | int64(l) }
func (s span) layer() layer           { return layer(s.id & 7) }

// parentOf derives a span's parent from its own id, for every layer
// below gateway.serve (whose parent, the op, is stored when recorded).
func parentOf(id int64) int64 {
	switch l := layer(id & 7); l {
	case layerAcquire, layerApp:
		return id - 1
	case layerCryptWrite, layerCryptRead, layerRootfsRead:
		return id&^7 | int64(layerApp)
	}
	return 0
}

// tracer is the in-memory span recorder of the traced pass. A nil
// tracer, and a tracer that is switched off, record nothing: begin
// returns 0 and record ignores a zero start.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Int64   // request and operation numbers
	cur   []atomic.Int64 // per worker: the root span of the op in flight
	// open counts, per worker, the handler spans (gateway.serve, app) not
	// yet recorded. A handler's last write can complete its caller before
	// the handler returns, so a parent on another goroutine waits for the
	// count to drop before it closes: spans then nest by construction.
	open []atomic.Int32
	// byG maps a goroutine serving a request to that request's number:
	// Source.Acquire takes no argument, so the goroutine it is called on
	// is the only link to the request it admits.
	byG sync.Map

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer(workers int) *tracer {
	return &tracer{epoch: time.Now(), cur: make([]atomic.Int64, workers), open: make([]atomic.Int32, workers)}
}

// number returns a fresh request number for worker k, and worker the
// worker a number belongs to.
func (t *tracer) number(k int) int64   { return t.next.Add(1)*int64(len(t.cur)) + int64(k) }
func (t *tracer) worker(req int64) int { return int(req % int64(len(t.cur))) }

// settle waits until at most n of worker k's handler spans are open. The
// wait is bounded: a span still open after it shows up as a nesting
// error instead of a hang.
func (t *tracer) settle(k int, n int32) {
	for deadline := time.Now().Add(10 * time.Millisecond); t.open[k].Load() > n && time.Now().Before(deadline); {
		runtime.Gosched()
	}
}

// begin returns the current trace time, or 0 when nothing is recorded.
func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// record closes the span of layer l of request req opened at start,
// which is not 0.
func (t *tracer) record(req int64, l layer, parent, start int64) {
	s := span{id: spanID(req, l), parent: parent, start: start, end: int64(time.Since(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// end closes a span whose parent follows from its id. A request that
// carried no number (req 0) is not part of the trace.
func (t *tracer) end(req int64, l layer, start int64) {
	if start != 0 && req != 0 {
		t.record(req, l, parentOf(spanID(req, l)), start)
	}
}

// opBegin opens worker k's next root span.
func (t *tracer) opBegin(k int) (req, start int64) {
	if start = t.begin(); start == 0 {
		return 0, 0
	}
	req = t.number(k)
	t.cur[k].Store(spanID(req, layerOp))
	return req, start
}

// opEnd closes a root span once the handlers it caused have returned.
func (t *tracer) opEnd(req, start int64) {
	if start != 0 {
		t.settle(t.worker(req), 0)
		t.record(req, layerOp, 0, start)
	}
}

// appBegin opens the node handler's span for the request r carries.
func (t *tracer) appBegin(r *http.Request) (req, start int64) {
	if start = t.begin(); start == 0 {
		return 0, 0
	}
	req, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	if err != nil {
		return 0, 0
	}
	t.open[t.worker(req)].Add(1)
	return req, start
}

// appEnd closes the node handler's span.
func (t *tracer) appEnd(req, start int64) {
	if start != 0 {
		t.end(req, layerApp, start)
		t.open[t.worker(req)].Add(-1)
	}
}

// front wraps the gateway for worker k's TLS server: it numbers the
// request, hands the number on in the span header, and records
// gateway.serve under the op the worker has in flight.
func (t *tracer) front(k int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.begin()
		if start == 0 {
			next.ServeHTTP(w, r)
			return
		}
		req, g := t.number(k), goid()
		t.byG.Store(g, req)
		t.open[k].Add(1)
		r.Header.Set(spanHeader, strconv.FormatInt(req, 10))
		defer func() {
			t.byG.Delete(g)
			t.record(req, layerServe, t.cur[k].Load(), start)
			t.open[k].Add(-1)
		}()
		next.ServeHTTP(w, r)
	})
}

// tracedSource times the admission the gateway holds for a request's
// lifetime: Acquire until the release func runs. Wrapping the Source
// leaves the gateway's code path as it is; wrapping Config.Verifier
// would not (the gateway type-asserts *attestation.Mux).
type tracedSource struct {
	gateway.Source
	tr *tracer
}

func (s *tracedSource) Acquire() (fleet.Snapshot, func()) {
	start := s.tr.begin()
	if start == 0 {
		return s.Source.Acquire()
	}
	req, ok := s.tr.byG.Load(goid())
	if !ok { // not on a request's goroutine: the gateway's own sync
		return s.Source.Acquire()
	}
	snap, release := s.Source.Acquire()
	return snap, func() {
		release()
		// Only gateway.serve, which this runs inside, may still be open.
		s.tr.settle(s.tr.worker(req.(int64)), 1)
		s.tr.end(req.(int64), layerAcquire, start)
	}
}

// goid returns the running goroutine's number, parsed from the first
// line of its stack ("goroutine 123 [running]:").
func goid() int64 {
	var buf [40]byte
	s := buf[len("goroutine "):runtime.Stack(buf[:], false)]
	if i := bytes.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	n, _ := strconv.ParseInt(string(s), 10, 64)
	return n
}

// take switches recording off and returns what was recorded.
func (t *tracer) take() []span {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// breakdown is what the spans of one traced phase add up to.
type breakdown struct {
	ops    int
	counts [numLayers]int
	selfNS [numLayers]int64 // total self time per layer
	opNS   int64            // total op time
}

// selfTime is a span's duration minus the part of it its children cover
// (children may overlap each other; they are clipped to the parent).
func selfTime(parent span, children []span) int64 {
	sort.Slice(children, func(a, b int) bool { return children[a].start < children[b].start })
	covered, reach := int64(0), parent.start
	for _, c := range children {
		lo, hi := max(c.start, reach), min(c.end, parent.end)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return parent.end - parent.start - covered
}

// analyze checks that every span nests inside its parent and sums self
// times per layer.
func analyze(spans []span) (breakdown, error) {
	var b breakdown
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.id]; dup {
			return b, fmt.Errorf("trace: span %d (%s) recorded twice", s.id, layerNames[s.layer()])
		}
		byID[s.id] = s
	}
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.layer() == layerOp {
			continue
		}
		p, ok := byID[s.parent]
		if !ok {
			return b, fmt.Errorf("trace: %s span %d has no parent %d", layerNames[s.layer()], s.id, s.parent)
		}
		if s.start < p.start || s.end > p.end {
			return b, fmt.Errorf("trace: %s span %d [%d,%d] leaves its parent %s [%d,%d]",
				layerNames[s.layer()], s.id, s.start, s.end, layerNames[p.layer()], p.start, p.end)
		}
		children[s.parent] = append(children[s.parent], s)
	}
	for _, s := range spans {
		l := s.layer()
		b.counts[l]++
		b.selfNS[l] += selfTime(s, children[s.id])
		if l == layerOp {
			b.ops++
			b.opNS += s.end - s.start
		}
	}
	return b, nil
}

// meanSelfUS is layer l's mean self time per operation.
func (b breakdown) meanSelfUS(l layer) float64 {
	if b.ops == 0 {
		return 0
	}
	return us(b.selfNS[l]) / float64(b.ops)
}

// check reports whether the layers' self times account for the op time
// within 1 % — they do by construction when every span has nested.
func (b breakdown) check() error {
	var sum int64
	for _, ns := range b.selfNS {
		sum += ns
	}
	if diff := sum - b.opNS; b.ops == 0 || diff > b.opNS/100 || -diff > b.opNS/100 {
		return fmt.Errorf("trace: self times sum to %d ns over %d ops, op time is %d ns", sum, b.ops, b.opNS)
	}
	return nil
}

// writeTrace flushes spans to path as a JSON array, one object per span.
func writeTrace(path string, spans []span) error {
	type row struct {
		Name   string `json:"name"`
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
		Req    int64  `json:"req"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{layerNames[s.layer()], s.id, s.parent, s.id >> 3, s.start, s.end}
	}
	if err := json.NewEncoder(f).Encode(rows); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
