package netlab

import (
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Relay is a loopback TCP forwarder standing in for the network path
// between a client and a server — the part of it an on-path attacker
// holds. It counts the connections clients open through it (one per TLS
// handshake) and can cut the established ones, which is how the
// "kill the attested connection, then redirect" attack starts.
type Relay struct {
	ctx      context.Context
	ln       net.Listener
	target   string
	accepted atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewRelay listens on a loopback port and forwards every connection to
// target; ctx bounds the relay's dials to target.
func NewRelay(ctx context.Context, target string) (*Relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &Relay{ctx: ctx, ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	go r.serve()
	return r, nil
}

// Addr is the address clients connect to.
func (r *Relay) Addr() string { return r.ln.Addr().String() }

// Accepted counts the connections clients have opened so far.
func (r *Relay) Accepted() int64 { return r.accepted.Load() }

// Cut closes every established connection, both legs. The relay keeps
// accepting new ones.
func (r *Relay) Cut() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for c := range r.conns {
		_ = c.Close()
	}
}

// Close stops the relay and cuts what is left.
func (r *Relay) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	_ = r.ln.Close()
	r.Cut()
}

func (r *Relay) serve() {
	for {
		down, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.accepted.Add(1)
		go r.forward(down)
	}
}

func (r *Relay) forward(down net.Conn) {
	up, err := new(net.Dialer).DialContext(r.ctx, "tcp", r.target)
	if err != nil {
		_ = down.Close()
		return
	}
	if !r.track(down, up) {
		return
	}
	// Either direction ending ends both: a half-open relay would hide
	// one side's hang-up from the other.
	go func() {
		_, _ = io.Copy(up, down)
		r.hangUp(down, up)
	}()
	_, _ = io.Copy(down, up)
	r.hangUp(down, up)
}

// track registers a connection pair, refusing (and closing) it when the
// relay is already closed.
func (r *Relay) track(down, up net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		_ = down.Close()
		_ = up.Close()
		return false
	}
	r.conns[down], r.conns[up] = struct{}{}, struct{}{}
	return true
}

// hangUp closes and forgets a connection pair; calling it twice is
// harmless.
func (r *Relay) hangUp(down, up net.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.conns, down)
	delete(r.conns, up)
	_ = down.Close()
	_ = up.Close()
}
