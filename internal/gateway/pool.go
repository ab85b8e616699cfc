package gateway

import (
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
)

// This file is the gateway's arm of the PR-2 sync.Pool discipline: the
// per-request allocations that dominated the proxy hot path — copy
// buffers, the outbound request shell and its header workspace, the
// per-attempt deadline string, pick and exclusion sets — live in pooled
// scratch reused across requests. Every Get is balanced by a Put on
// every return path (the poolescape analyzer enforces it), and nothing
// pooled is reused while the round-tripper might still reference it
// (see wireScratch.inFlight).

// copyBufSize is the chunk size for pooled body streaming — io.Copy's
// internal default, made explicit so the response path and the probe
// drain share one pool.
const copyBufSize = 32 * 1024

// copyBufPool recycles body-copy buffers. Pointer-to-slice, like the
// dmcrypt sector pool, so Put does not allocate a fresh interface box.
var copyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, copyBufSize)
		return &b
	},
}

// scratchPool recycles the per-request proxy workspace.
var scratchPool = sync.Pool{
	New: func() any { return &proxyScratch{} },
}

// msTableSize bounds the precomputed millisecond strings. 4096 covers
// every carved per-try budget under the default PerTryTimeout (2000ms)
// with room for generous overrides; larger values fall back to
// strconv.AppendInt into wire scratch.
const msTableSize = 4096

// msTable maps small millisecond counts to their decimal strings, so
// the per-attempt DeadlineHeader rewrite stops allocating a fresh
// string per attempt.
var msTable = func() (t [msTableSize]string) {
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return t
}()

// writerOnly hides every optional interface of the wrapped writer —
// in particular io.ReaderFrom. net/http's ResponseWriter implements
// ReaderFrom, and io.CopyBuffer prefers that path, ignoring the caller
// buffer and allocating its own 32 KiB chunk per request; masking it
// forces the copy through the pooled buffer.
type writerOnly struct{ io.Writer }

// wireScratch is the round-tripper-visible part of the per-request scratch:
// the outbound request shell, its URL and header workspace, and the
// single-value slices backing the headers the gateway owns. It is
// reused across requests only when the previous attempt provably
// finished with the wire (see inFlight).
type wireScratch struct {
	req    http.Request
	url    url.URL
	hdr    http.Header
	dlVal  [1]string // DeadlineHeader value slice
	xffVal [1]string // X-Forwarded-For value slice
	numBuf [20]byte  // strconv.AppendInt fallback workspace
	// inFlight is the taint bit, set when the shell handed to roundTrip
	// carries a body: the connection pool writes a body on a goroutine
	// that can outlive roundTrip (an early answer, an error) and still
	// read the request memory. A tainted wire is abandoned to the garbage
	// collector and the next attempt, a retry of the same request
	// included, allocates a fresh one — requests with a body pay, the
	// bodyless steady path stays zero-alloc.
	inFlight bool
}

// scrub drops the references a finished request left behind so a pooled
// wire retains no body, header values, or URL strings between requests.
// The header map itself is the asset being pooled and survives.
func (w *wireScratch) scrub() {
	w.req = http.Request{}
	w.url = url.URL{}
	w.dlVal[0], w.xffVal[0] = "", ""
	clear(w.hdr)
}

// msText formats a millisecond count without allocating for the common
// range: table hit for small values, pooled AppendInt workspace beyond.
func (w *wireScratch) msText(ms int64) string {
	if ms >= 0 && ms < msTableSize {
		return msTable[ms]
	}
	return string(strconv.AppendInt(w.numBuf[:0], ms, 10))
}

// proxyScratch is the pooled per-request workspace for ServeHTTP: the
// exclusion and candidate sets the retry loop reuses, the
// ReaderFrom-defeating writer wrapper, and the round-tripper-visible
// wire scratch.
type proxyScratch struct {
	excluded []string    // upstreams failed by earlier attempts this request
	picks    []*upstream // pick's candidate workspace
	wo       writerOnly  // body-copy destination, Writer set per response
	wire     *wireScratch
}

// reset returns the scratch to its pooled state: workspaces emptied
// without shrinking, pointers dropped so nothing from the finished
// request is retained, and a tainted wire abandoned.
func (sc *proxyScratch) reset() {
	sc.excluded = sc.excluded[:0]
	for i := range sc.picks {
		sc.picks[i] = nil
	}
	sc.picks = sc.picks[:0]
	sc.wo.Writer = nil
	if sc.wire != nil {
		if sc.wire.inFlight {
			sc.wire = nil
		} else {
			sc.wire.scrub()
		}
	}
}

// excludedHas reports whether addr failed earlier in this request. The
// set is bounded by the retry budget (single digits), so a linear scan
// beats the per-request map the exclusion set used to allocate.
func excludedHas(excluded []string, addr string) bool {
	for _, a := range excluded {
		if a == addr {
			return true
		}
	}
	return false
}
