// Package drain stops an http.Server without waiting for connections
// that have nothing to drain.
//
// http.Server.Shutdown waits for every connection to go idle, and counts
// a connection in http.StateNew — accepted, perhaps handshaken, but not
// one request byte read — as busy until it is five seconds old. A client
// transport leaves such connections behind as a matter of course: when
// two requests dial a new host and the faster dial serves both, the
// slower connection is parked unused. A server holding one sits out its
// whole shutdown grace for it (a fleet node removal took 2 s instead of
// 0.3 ms one time in ten). Server remembers which connections are still
// fresh and hangs up on them first.
package drain

import (
	"context"
	"net"
	"net/http"
	"sync"
	"time"
)

// Server is an http.Server whose Stop does not wait for fresh
// connections. Build it with New; use the embedded server to Serve.
type Server struct {
	*http.Server

	mu sync.Mutex
	// fresh is the connections in http.StateNew; nil once Stop has begun,
	// when a connection that still arrives is hung up on (guarded by mu).
	fresh map[net.Conn]struct{}
}

// New takes over srv's ConnState hook, which must be unset.
func New(srv *http.Server) *Server {
	s := &Server{Server: srv, fresh: make(map[net.Conn]struct{})}
	srv.ConnState = s.track
	return s
}

func (s *Server) track(c net.Conn, state http.ConnState) {
	s.mu.Lock()
	refuse := false
	switch {
	case state != http.StateNew:
		delete(s.fresh, c)
	case s.fresh == nil:
		refuse = true
	default:
		s.fresh[c] = struct{}{}
	}
	s.mu.Unlock()
	if refuse {
		_ = c.Close()
	}
}

// Stop closes the listeners and the connections that never sent a
// request byte, gives requests in flight up to grace to complete, and
// then closes whatever is left so nothing outlives the call (a stuck
// reader would otherwise strand its goroutine; start/stop cycles under
// fleet churn would accumulate them). It reports whether everything
// drained inside the grace. The caller must have stopped sending new
// traffic: a request that arrives on a fresh connection during Stop is
// refused.
func (s *Server) Stop(grace time.Duration) (drained bool) {
	s.mu.Lock()
	fresh := s.fresh
	s.fresh = nil
	s.mu.Unlock()
	for c := range fresh {
		_ = c.Close()
	}
	//revelio:allow ctxfirst end of the server's lifecycle: there is no caller context to inherit, and the grace is the bound
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	drained = s.Shutdown(ctx) == nil
	_ = s.Close()
	return drained
}
