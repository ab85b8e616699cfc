package gateway

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"testing"
	"time"

	"revelio/internal/race"
)

// replayBody is a rewindable in-memory response body: the stub
// transport rewinds it per request instead of allocating a reader, so
// the allocation guard below measures the gateway's own path.
type replayBody struct {
	data []byte
	off  int
}

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *replayBody) Close() error { return nil }

// stubTransport answers every attempt with one reused canned response
// — zero allocations of its own — standing in for the connection pool
// behind the Gateway.rt seam. Only valid for the sequential use the
// guard and benchmark make of it.
type stubTransport struct {
	resp http.Response
	body replayBody
}

func newStubTransport(payload string) *stubTransport {
	st := &stubTransport{body: replayBody{data: []byte(payload)}}
	st.resp = http.Response{
		Status:        "200 OK",
		StatusCode:    http.StatusOK,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        make(http.Header),
		Body:          &st.body,
		ContentLength: int64(len(payload)),
	}
	return st
}

func (st *stubTransport) roundTrip(_ context.Context, r *http.Request, _, _ time.Time) (*http.Response, error) {
	if r.Body != nil {
		_ = r.Body.Close()
	}
	st.body.off = 0
	return &st.resp, nil
}

// nullRW is a ResponseWriter that discards everything, reusing one
// header map across requests.
type nullRW struct{ h http.Header }

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullRW) WriteHeader(int)             {}

// newAllocGateway builds an unstarted gateway over a one-node view with
// the round-tripper seam replaced by a canned-response stub.
func newAllocGateway(tb testing.TB, payload string) *Gateway {
	tb.Helper()
	g, err := New(Config{
		Source:   NewView(testDomain, serving("127.0.0.1:4433")),
		Verifier: newTestProvider("alloc"),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(g.Close)
	g.rt = newStubTransport(payload)
	return g
}

// allocRequest builds a reusable inbound request; ServeHTTP must not
// mutate it, so one shell serves every iteration.
func allocRequest() *http.Request {
	return &http.Request{
		Method:     http.MethodGet,
		URL:        &url.URL{Scheme: "http", Host: "client.example", Path: "/hot"},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{"Accept": {"*/*"}, "User-Agent": {"alloc-guard"}},
		Host:       "client.example",
		RemoteAddr: "192.0.2.10:4242",
	}
}

// TestGatewayProxyAllocs is the allocs/op guard for the proxied-request
// hot path: with the pooled scratch, and no context or timer made per
// attempt, the gateway's own path allocates nothing. Mirrors the
// dmcrypt/dmverity guards, including the -race skip.
func TestGatewayProxyAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	g := newAllocGateway(t, "hello from the fleet")
	req := allocRequest()
	w := &nullRW{h: make(http.Header)}
	// Warm the pools and grow the pooled maps/slices to steady state.
	for i := 0; i < 64; i++ {
		g.ServeHTTP(w, req)
	}
	allocs := testing.AllocsPerRun(200, func() {
		g.ServeHTTP(w, req)
	})
	if allocs != 0 {
		t.Errorf("steady-state proxied request: %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkGatewayProxy reports ns/op and allocs/op for the gateway's
// own proxy path over the stubbed transport (run with -benchmem). The
// whole-path number including net/http is the benchmark's
// gateway.serve_allocs.
func BenchmarkGatewayProxy(b *testing.B) {
	g := newAllocGateway(b, "hello from the fleet")
	req := allocRequest()
	w := &nullRW{h: make(http.Header)}
	for i := 0; i < 64; i++ {
		g.ServeHTTP(w, req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ServeHTTP(w, req)
	}
}
