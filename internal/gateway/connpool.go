package gateway

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"revelio/internal/fleet"
)

// roundTripper runs one upstream attempt: tryBy bounds its dial, its
// request and its response headers, reqBy the response body, and ctx
// ending interrupts it. The connection pool is the gateway's; tests
// substitute a canned upstream.
type roundTripper interface {
	roundTrip(ctx context.Context, req *http.Request, tryBy, reqBy time.Time) (*http.Response, error)
}

// connPool is the gateway's upstream connection manager and the
// roundTripper behind Gateway.rt. It keeps, per upstream address, a
// stack of idle RA-TLS connections, and runs each attempt as one
// HTTP/1.1 exchange on the caller's goroutine: take an idle connection
// or dial one, write the request, read the response. The wire codec is
// net/http's (Request.Write, ReadResponse); what it leaves out is
// net/http's Transport, with its two goroutines per connection and the
// hand-offs between them on every request. A connection goes back to
// the pool only when its exchange provably finished and it holds no
// byte past the response (connBody.Close), and leaves it only if no
// byte arrived while it sat idle (take).
type connPool struct {
	// tlsConfig judges every new connection's evidence through the
	// gateway's verifier. It installs no session cache, so every dial is
	// a full handshake.
	tlsConfig *tls.Config
	// now is the gateway's clock seam; it ages idle connections.
	now func() time.Time

	mu sync.Mutex
	// idle holds each upstream's idle connections, the most recently
	// used last (guarded by mu).
	idle map[string][]*poolConn
	// gen moves on every flush: a connection dialled under an older
	// generation is closed when its exchange ends, never pooled
	// (guarded by mu).
	gen uint64
	// closed makes every connection put back close instead (guarded by
	// mu).
	closed bool
}

func newConnPool(tlsConfig *tls.Config, now func() time.Time) *connPool {
	return &connPool{
		tlsConfig: tlsConfig,
		now:       now,
		idle:      make(map[string][]*poolConn),
	}
}

// poolConn is one upstream connection with its buffered codec state.
// Exactly one exchange owns it at a time; the pool owns it while idle.
type poolConn struct {
	pool   *connPool
	addr   string
	conn   *tls.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	gen    uint64    // the pool generation it was dialled under
	idleAt time.Time // when it last went back to the pool
	reused bool      // it came from the pool, not from a dial
	// abort is interrupt, bound once at dial so that the per-exchange
	// context.AfterFunc does not allocate a method value.
	abort func()
	// sock is the TCP socket under conn, for take's look at it; nil when
	// conn runs over no socket. peek is peekSocket bound once, and spoke
	// its finding.
	sock  syscall.RawConn
	peek  func(fd uintptr)
	spoke bool
}

// connWriter is what a poolConn's buffered writer writes to. Its
// ReadFrom lets bufio.Writer hand a request body, once the headers are
// flushed, straight to the TLS connection in copy-buffer chunks, as
// net/http's Transport does, instead of cutting it into the writer's
// 4 KiB buffers: a record and a write syscall per 16 KiB, not per 4.
type connWriter struct{ *tls.Conn }

func (w connWriter) ReadFrom(r io.Reader) (int64, error) {
	bufp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bufp)
	return io.CopyBuffer(w.Conn, r, *bufp)
}

// aLongTimeAgo is a deadline in the past: set on a connection, it fails
// every read and write in progress at once.
var aLongTimeAgo = time.Unix(1, 0)

// interrupt fails the exchange in progress on pc, from any goroutine.
func (pc *poolConn) interrupt() { _ = pc.conn.SetDeadline(aLongTimeAgo) }

func (pc *poolConn) close() { _ = pc.conn.Close() }

func closeConns(conns []*poolConn) {
	for _, pc := range conns {
		pc.close()
	}
}

// roundTrip runs one attempt on a pooled or fresh connection to
// req.URL.Host. The connection's deadline is the attempt's clock: tryBy
// until the response headers are in, reqBy after. Past it, the runtime's
// poller fails a read or a write before it reaches the socket, so an
// answer that comes later is never read. When ctx ends, the deadline
// moves to the past at once. Either way the connection is closed rather
// than pooled.
func (p *connPool) roundTrip(ctx context.Context, req *http.Request, tryBy, reqBy time.Time) (*http.Response, error) {
	pc := p.take(req.URL.Host, tryBy)
	for {
		if pc == nil {
			var err error
			if pc, err = p.dial(ctx, req.URL.Host, tryBy); err != nil {
				if req.Body != nil {
					_ = req.Body.Close()
				}
				return nil, err
			}
		}
		resp, answered, err := pc.exchange(ctx, req, reqBy)
		if err == nil {
			return resp, nil
		}
		// A node may hang up on an idle connection just after take looked
		// at it, and the exchange that took it learns so only by failing
		// before any answer. Like net/http's Transport, redial once for a
		// request that can be sent again: no node refused it, so this is
		// no gateway retry and nothing the breaker counts. An attempt out
		// of time is not redialled.
		if !pc.reused || answered || ctx.Err() != nil || errors.Is(err, os.ErrDeadlineExceeded) || !replayable(req) {
			return nil, err
		}
		if req.Body != nil && req.Body != http.NoBody {
			body, err := req.GetBody()
			if err != nil {
				return nil, err
			}
			// A shallow copy: the failed exchange's body writer may still
			// be reading req.
			again := *req
			again.Body = body
			req = &again
		}
		pc = nil
	}
}

// replayable is net/http's Transport rule for resending a request
// after a reused connection failed before any answer: its body can be
// sent again, and its method is idempotent or it carries an
// idempotency key.
func replayable(r *http.Request) bool {
	if !retryable(r) {
		return false
	}
	switch r.Method {
	case "", http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace:
		return true
	}
	_, key := r.Header["Idempotency-Key"]
	_, xkey := r.Header["X-Idempotency-Key"]
	return key || xkey
}

// take hands out addr's most recently used idle connection that the
// node sent nothing on while it sat idle, with tryBy as its deadline, or
// returns nil. A connection the node spoke on — bytes nobody asked for,
// a close_notify, a hang-up — is closed and the next one looked at.
func (p *connPool) take(addr string, tryBy time.Time) *poolConn {
	for {
		pc := p.pop(addr)
		if pc == nil {
			return nil
		}
		if pc.sock == nil || pc.sock.Control(pc.peek) == nil && !pc.spoke {
			_ = pc.conn.SetDeadline(tryBy)
			pc.reused = true
			return pc
		}
		pc.close()
	}
}

// pop removes addr's most recently used idle connection, or returns nil.
// Connections stack in the order they went idle, so when the top one is
// older than upstreamIdleTimeout every one under it is too, and all of
// them are closed.
func (p *connPool) pop(addr string) *poolConn {
	now := p.now()
	var pc *poolConn
	var stale []*poolConn
	p.mu.Lock()
	idle := p.idle[addr]
	switch n := len(idle); {
	case n == 0:
	case now.Sub(idle[n-1].idleAt) < upstreamIdleTimeout:
		pc = idle[n-1]
		idle[n-1] = nil
		p.idle[addr] = idle[:n-1]
	default:
		stale = idle
		delete(p.idle, addr)
	}
	p.mu.Unlock()
	closeConns(stale)
	return pc
}

// drained reports that pc holds no byte past the response just read:
// none in its bufio.Reader, none in crypto/tls's buffers. With the
// deadline in the past, Peek returns a buffered byte if there is one and
// fails without reaching the socket if there is none; a timeout error
// sticks in neither reader.
func (pc *poolConn) drained() bool {
	pc.interrupt()
	_, err := pc.br.Peek(1)
	return errors.Is(err, os.ErrDeadlineExceeded)
}

// put pools a connection whose exchange finished cleanly. It closes it
// instead when the pool is closed, was flushed since the connection was
// dialled, or already keeps maxIdleConnsPerHost for the upstream.
func (p *connPool) put(pc *poolConn) {
	pc.idleAt = p.now()
	p.mu.Lock()
	idle := p.idle[pc.addr]
	pooled := !p.closed && pc.gen == p.gen && len(idle) < maxIdleConnsPerHost
	if pooled {
		p.idle[pc.addr] = append(idle, pc)
	}
	p.mu.Unlock()
	if !pooled {
		pc.close()
	}
}

// dial opens a fresh RA-TLS connection to addr: the TCP dial and the
// handshake, in which the verifier judges the node's evidence, both
// within ctx and by tryBy, which stays the connection's deadline.
func (p *connPool) dial(ctx context.Context, addr string, tryBy time.Time) (*poolConn, error) {
	p.mu.Lock()
	gen := p.gen
	p.mu.Unlock()
	d := net.Dialer{Deadline: tryBy}
	raw, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	_ = raw.SetDeadline(tryBy)
	conn := tls.Client(raw, p.tlsConfig)
	if err := conn.HandshakeContext(ctx); err != nil {
		_ = raw.Close()
		return nil, err
	}
	pc := &poolConn{pool: p, addr: addr, conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(connWriter{conn}), gen: gen}
	pc.abort = pc.interrupt
	if sc, ok := raw.(syscall.Conn); ok {
		pc.sock, _ = sc.SyscallConn()
		pc.peek = pc.peekSocket
	}
	return pc, nil
}

// closeIdle closes every idle connection and moves the generation, so a
// connection in use now is closed when its exchange ends: after a
// policy-epoch bump every upstream re-proves itself on a new handshake.
func (p *connPool) closeIdle() { p.flush(false) }

// close is closeIdle for good: nothing is pooled after it.
func (p *connPool) close() { p.flush(true) }

func (p *connPool) flush(final bool) {
	p.mu.Lock()
	idle := p.idle
	p.idle = make(map[string][]*poolConn)
	p.gen++
	p.closed = p.closed || final
	p.mu.Unlock()
	for _, conns := range idle {
		closeConns(conns)
	}
}

// retain closes the idle connections to every upstream eps no longer
// lists: a departed node's connections serve nothing again, and nothing
// else would close them.
func (p *connPool) retain(eps []fleet.Endpoint) {
	var gone []*poolConn
	p.mu.Lock()
	for addr, conns := range p.idle {
		if !slices.ContainsFunc(eps, func(ep fleet.Endpoint) bool { return ep.UpstreamAddr == addr }) {
			gone = append(gone, conns...)
			delete(p.idle, addr)
		}
	}
	p.mu.Unlock()
	closeConns(gone)
}

// Exchange states: the response has not arrived yet, it has, or the
// request body's writer failed first.
const (
	exchWaiting int32 = iota
	exchAnswered
	exchWriteFailed
)

// exchange sends req on pc and reads the response headers, then moves
// the connection's deadline to reqBy for the body. A request
// without a body is written on the caller's goroutine. A body is
// written by a goroutine that lives only while it is sent, so that a
// node's early answer — a 413 to an upload it will not read — is read
// and relayed while the upload is still going. answered reports that a
// response byte arrived: a reused connection that failed before one may
// be redialled.
func (pc *poolConn) exchange(ctx context.Context, req *http.Request, reqBy time.Time) (resp *http.Response, answered bool, err error) {
	body := &connBody{pc: pc, stop: context.AfterFunc(ctx, pc.abort)}
	if req.Body == nil || req.Body == http.NoBody {
		err = pc.write(req)
	} else {
		body.wrote = make(chan error, 1)
		go body.send(req)
	}
	if err == nil {
		if _, err = pc.br.Peek(1); err == nil {
			answered = true
			resp, err = pc.readResponse(req)
		}
	}
	if body.wrote != nil && !body.state.CompareAndSwap(exchWaiting, exchAnswered) {
		// The body writer failed first and interrupted the read: its
		// error is the cause.
		err = <-body.wrote
	}
	if err != nil {
		body.stop()
		pc.close()
		if ctx.Err() != nil {
			// The attempt was called off; that, not the I/O error the
			// interrupted connection reported, is why it failed.
			err = ctx.Err()
		}
		return nil, answered, fmt.Errorf("exchange with %s: %w", pc.addr, err)
	}
	_ = pc.conn.SetDeadline(reqBy)
	if ctx.Err() != nil {
		// ctx ended while the headers were read, and its interrupt may
		// have landed before the move to reqBy: it must stand.
		pc.interrupt()
	}
	body.r = resp.Body
	body.keep = !resp.Close
	resp.Body = body
	return resp, true, nil
}

// write sends req and flushes it.
func (pc *poolConn) write(req *http.Request) error {
	if err := req.Write(pc.bw); err != nil {
		return err
	}
	return pc.bw.Flush()
}

// readResponse reads the final response to req, skipping 1xx interim
// ones.
func (pc *poolConn) readResponse(req *http.Request) (*http.Response, error) {
	for {
		resp, err := http.ReadResponse(pc.br, req)
		if err != nil || resp.StatusCode >= 200 {
			return resp, err
		}
	}
}

// connBody is an exchange's response body, which settles the
// connection when closed.
type connBody struct {
	pc   *poolConn
	r    io.Reader // the codec's body; never closed, which would drain it
	stop func() bool
	// wrote carries the body writer's result; nil for a request without
	// a body.
	wrote  chan error
	state  atomic.Int32
	keep   bool // the response leaves the connection open
	eof    bool
	closed bool
}

// send writes a request with a body and reports on wrote. A write that
// fails before the response arrived interrupts the read waiting for it,
// as net/http's Transport write loop does; after the response arrived,
// a failed write only keeps the connection out of the pool.
func (b *connBody) send(req *http.Request) {
	err := b.pc.write(req)
	if err != nil && b.state.CompareAndSwap(exchWaiting, exchWriteFailed) {
		b.pc.interrupt()
	}
	b.wrote <- err
}

func (b *connBody) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	n, err := b.r.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

// Close hands the connection back to the pool when the exchange
// provably finished with it: the body was read to EOF, the response
// leaves the connection open, the request was written in full, the
// context never interrupted it and no byte past the response is
// buffered. Otherwise it closes the connection, which also ends a body
// writer still sending.
func (b *connBody) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	if b.stop() && b.eof && b.keep && b.written() && b.pc.drained() {
		b.pc.pool.put(b.pc)
	} else {
		b.pc.close()
	}
	return nil
}

// written reports that the request went out in full: it had no body,
// or its body writer has finished without an error.
func (b *connBody) written() bool {
	if b.wrote == nil {
		return true
	}
	select {
	case err := <-b.wrote:
		return err == nil
	default:
		return false
	}
}
