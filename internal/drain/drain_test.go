package drain

import (
	"crypto/tls"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// The tests give Stop a grace far longer than anything here takes and
// assert on what it reports, not on how long it took: "drained" is a
// fact about the connections, the grace running out is the failure.
const grace = 30 * time.Second

func serve(t *testing.T, handler http.Handler, tlsConfig *tls.Config) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if tlsConfig != nil {
		ln = tls.NewListener(ln, tlsConfig)
	}
	s := New(&http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second})
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Serve(ln) }()
	t.Cleanup(func() { _ = s.Close(); <-done })
	return s, addr
}

// hungUp reports whether the peer closed conn (as against leaving it
// open until the read deadline).
func hungUp(conn net.Conn) bool {
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := conn.Read(make([]byte, 1))
	var timeout net.Error
	return err != nil && !(errors.As(err, &timeout) && timeout.Timeout())
}

// TestStopHangsUpOnSilentConnections: a dialled (and handshaken) but
// silent connection is not waited for. With http.Server.Shutdown alone
// this Stop would report the deadline.
func TestStopHangsUpOnSilentConnections(t *testing.T) {
	cert := httptest.NewUnstartedServer(nil)
	cert.StartTLS()
	defer cert.Close()
	for scheme, tlsConfig := range map[string]*tls.Config{
		"http":  nil,
		"https": {Certificates: cert.TLS.Certificates},
	} {
		t.Run(scheme, func(t *testing.T) {
			s, addr := serve(t, http.NotFoundHandler(), tlsConfig)
			var conns []net.Conn
			for i := 0; i < 3; i++ {
				var conn net.Conn
				var err error
				if tlsConfig != nil {
					conn, err = tls.Dial("tcp", addr, &tls.Config{InsecureSkipVerify: true}) //nolint:gosec // only the connection's state matters
				} else {
					conn, err = net.Dial("tcp", addr)
				}
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = conn.Close() }()
				conns = append(conns, conn)
			}
			// Over plain TCP a dial returns before the server has accepted;
			// one finished request orders the accepts before the Stop.
			resp, err := (&http.Client{Transport: &http.Transport{
				TLSClientConfig:   &tls.Config{InsecureSkipVerify: true}, //nolint:gosec // test server
				DisableKeepAlives: true,
			}}).Get(scheme + "://" + addr)
			if err != nil {
				t.Fatal(err)
			}
			_ = resp.Body.Close()

			if !s.Stop(grace) {
				t.Fatal("Stop waited out its grace for connections that never sent a byte")
			}
			for i, conn := range conns {
				if !hungUp(conn) {
					t.Errorf("silent connection %d left open", i)
				}
			}
		})
	}
}

// TestStopLetsRequestsInFlightFinish: hanging up on fresh connections
// must not touch a request that is being served.
func TestStopLetsRequestsInFlightFinish(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	s, addr := serve(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		_, _ = io.WriteString(w, "served")
	}), nil)

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr)
		if err != nil {
			got <- result{err: err}
			return
		}
		defer func() { _ = resp.Body.Close() }()
		body, err := io.ReadAll(resp.Body)
		got <- result{string(body), err}
	}()
	<-entered
	stopped := make(chan bool, 1)
	go func() { stopped <- s.Stop(grace) }()
	// Stop is now waiting on the request; a connection arriving this late
	// is refused rather than served.
	late, err := net.Dial("tcp", addr)
	if err == nil {
		defer func() { _ = late.Close() }()
		if !hungUp(late) {
			t.Error("connection accepted during Stop left open")
		}
	}
	close(release)
	if r := <-got; r.err != nil || r.body != "served" {
		t.Errorf("request in flight during Stop: body %q, err %v", r.body, r.err)
	}
	if !<-stopped {
		t.Error("Stop reported the grace ran out though the request finished")
	}
}

// TestStopCutsOffWhatOutlivesTheGrace: a request that never finishes is
// closed when the grace ends, and Stop says so.
func TestStopCutsOffWhatOutlivesTheGrace(t *testing.T) {
	entered := make(chan struct{})
	s, addr := serve(t, http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		close(entered)
		<-r.Context().Done()
	}), nil)
	failed := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + addr)
		if err == nil {
			_ = resp.Body.Close()
		}
		failed <- err
	}()
	<-entered
	if s.Stop(50 * time.Millisecond) {
		t.Error("Stop reported a clean drain with a request still stuck")
	}
	if err := <-failed; err == nil {
		t.Error("stuck request was answered instead of cut off")
	}
}
