package main

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"io"
	"math/big"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"revelio/internal/core"
	"revelio/internal/fleet"
	"revelio/internal/gateway"
	"revelio/internal/measure"
)

const (
	domain      = "bench.example.org"
	fleetNodes  = 2
	persistSize = 4 << 20
	// slotSize is one pad; the first slotSize bytes of the persistent
	// volume hold certmgr's sealed credentials, so slot s lives at
	// (s+1)·slotSize.
	slotSize = 64 << 10
	// Assets are the rootfs files in this size range (the image's
	// service binaries).
	assetMin = 48 << 10
	assetMax = 768 << 10
	// spanHeader carries the traced pass's request number from the
	// benchmark's TLS server, through the gateway, to the node handler.
	spanHeader = "X-Bench-Span"
)

var okBody = []byte("ok")

// splitmix is the seeded hash every generated input comes from: the
// same (seed, n) always yields the same value.
func splitmix(seed, n uint64) uint64 {
	z := seed + (n+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// slotPattern is the content of pad slot s under seed: every write
// stores it and every read is compared against it, so a read is
// checkable whichever node the balancer picks.
func slotPattern(seed uint64, s int) []byte {
	p := make([]byte, slotSize)
	for i := 0; i < slotSize; i += 8 {
		v := splitmix(seed^uint64(s)<<32, uint64(i))
		for b := 0; b < 8; b++ {
			p[i+b] = byte(v >> (8 * b))
		}
	}
	return p
}

// assetPaths lists the node's asset files in a fixed order.
func assetPaths(n *core.Node) []string {
	var out []string
	fs := n.VM.FS()
	for _, p := range fs.List() {
		if size, _, err := fs.Stat(p); err == nil && size >= assetMin && size <= assetMax {
			out = append(out, p)
		}
	}
	return out
}

// padBufs holds the node handler's slot-sized scratch buffers.
var padBufs = sync.Pool{New: func() any { b := make([]byte, slotSize); return &b }}

// app is the benchmark's node handler: a trivial page, the pad store on
// the dm-crypt persistent volume, and assets from the dm-verity rootfs.
type app struct {
	node   *core.Node
	assets []string
	tr     *tracer // nil outside the traced pass
}

func (a *app) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, start := a.tr.appBegin(r)
	defer a.tr.appEnd(req, start)
	switch r.URL.Path {
	case "/", fleet.HealthPath:
		_, _ = w.Write(okBody)
	case "/pad":
		a.servePad(w, r, req)
	case "/asset":
		i, err := strconv.Atoi(r.URL.Query().Get("i"))
		if err != nil || i < 0 || i >= len(a.assets) {
			http.Error(w, "bad asset", http.StatusBadRequest)
			return
		}
		t0 := a.tr.begin()
		data, err := a.node.VM.FS().ReadFile(a.assets[i])
		a.tr.end(req, layerRootfsRead, t0)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		_, _ = w.Write(data)
	default:
		http.NotFound(w, r)
	}
}

func (a *app) servePad(w http.ResponseWriter, r *http.Request, req int64) {
	vol := a.node.VM.Persist()
	slot, err := strconv.Atoi(r.URL.Query().Get("slot"))
	off := int64(slot+1) * slotSize
	if err != nil || slot < 0 || off+slotSize > vol.Size() {
		http.Error(w, "bad slot", http.StatusBadRequest)
		return
	}
	bufp := padBufs.Get().(*[]byte)
	defer padBufs.Put(bufp)
	buf := *bufp
	switch r.Method {
	case http.MethodPut:
		if _, err := io.ReadFull(r.Body, buf); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		t0 := a.tr.begin()
		err = vol.WriteAt(buf, off)
		a.tr.end(req, layerCryptWrite, t0)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(okBody)
	case http.MethodGet:
		t0 := a.tr.begin()
		err = vol.ReadAt(buf, off)
		a.tr.end(req, layerCryptRead, t0)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(slotSize))
		_, _ = w.Write(buf)
	default:
		http.Error(w, "method", http.StatusMethodNotAllowed)
	}
}

// reference is a yardstick for the machine, not part of the system: a
// TLS server of the standard library alone that answers GET / with the
// same two bytes a node does. What it yields moves with the machine's
// speed and with nothing in this repository.
type reference struct {
	srv   *http.Server
	done  chan struct{} // closed when the server has stopped serving
	addr  string
	roots *x509.CertPool
}

const refDomain = "reference.bench.example.org"

func startReference() (*reference, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1), Subject: pkix.Name{CommonName: refDomain}, DNSNames: []string{refDomain},
		NotBefore: time.Now().Add(-time.Hour), NotAfter: time.Now().Add(24 * time.Hour),
		KeyUsage: x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign, ExtKeyUsage: []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true, IsCA: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, err
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &reference{addr: ln.Addr().String(), roots: x509.NewCertPool(), done: make(chan struct{})}
	r.roots.AddCert(leaf)
	r.srv = &http.Server{
		Handler:           http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write(okBody) }),
		ReadHeaderTimeout: 10 * time.Second,
	}
	cert := tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key, Leaf: leaf}
	go func() {
		defer close(r.done)
		_ = r.srv.Serve(tls.NewListener(ln, &tls.Config{Certificates: []tls.Certificate{cert}}))
	}()
	return r, nil
}

// close stops the server and waits until it has stopped.
func (r *reference) close() {
	_ = r.srv.Close()
	<-r.done
}

// env is one stood-up system: fleet, gateway and the load generator's
// workers.
type env struct {
	ctx    context.Context
	seed   uint64
	f      *fleet.Fleet
	gw     *gateway.Gateway
	roots  *x509.CertPool
	tr     *tracer
	fronts []*http.Server // the traced pass's own TLS servers, one per worker

	// handshakes counts downstream full handshakes (GetCertificate calls).
	handshakes atomic.Int64
	// The gateway's retry and shed counters as of the last resettle: off
	// churn, traffic since then must not have moved them.
	calmRetries, calmShed int64

	golden     measure.Measurement
	slots      [][]byte // pad slot patterns
	assets     [][]byte // asset contents taken from the rootfs at set-up
	slotPaths  []string // "/pad?slot=s"
	assetPaths []string // "/asset?i=a"
	workers    []*worker
	gen        *generator
}

// standUp builds the system the way an operator would: a fleet of
// attested nodes (no injected RTT — traffic is host loopback and the
// numbers measure the program), the gateway in front of it, one worker
// per CPU, one request through the whole path, and the pad slots written
// on every node. With a tracer the gateway is served by the benchmark's
// own TLS servers and its source is wrapped; nothing else differs.
func standUp(ctx context.Context, seed uint64, tr *tracer) (e *env, err error) {
	f, err := fleet.New(ctx, fleet.Config{
		Nodes:       fleetNodes,
		Domain:      domain,
		PersistSize: persistSize,
		App: func(n *core.Node) http.Handler {
			return &app{node: n, assets: assetPaths(n), tr: tr}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	e = &env{ctx: ctx, seed: seed, tr: tr, f: f, roots: f.Deployment().CARootPool(), golden: f.Golden()}
	defer func() {
		if err != nil {
			e.close()
			e = nil
		}
	}()

	var src gateway.Source = f
	if tr != nil {
		src = &tracedSource{Source: f, tr: tr}
	}
	e.gw, err = gateway.New(gateway.Config{
		Source:   src,
		Verifier: f.Mux(),
		GetCertificate: func() (*tls.Certificate, error) {
			e.handshakes.Add(1)
			return f.ServingCertificate()
		},
	})
	if err != nil {
		return e, fmt.Errorf("gateway: %w", err)
	}

	addrs := make([]string, runtime.NumCPU())
	for k := range addrs {
		if tr != nil {
			addrs[k], err = e.startFront(k)
		} else if k == 0 {
			if err = e.gw.Start(); err == nil {
				addrs[k] = e.gw.Addr()
			}
		} else {
			addrs[k] = addrs[0]
		}
		if err != nil {
			return e, fmt.Errorf("gateway listener: %w", err)
		}
		e.workers = append(e.workers, newWorker(e, k, addrs[k]))
	}
	e.gen = newGenerator(e.workers)

	if err = steadyOp(e.workers[0], 0); err != nil {
		return e, fmt.Errorf("first request: %w", err)
	}
	return e, e.populate()
}

// startFront serves the gateway, used as the plain http.Handler it
// documents, behind a TLS server of the benchmark's own for worker k.
// One listener per worker is what ties a request to the operation that
// sent it: browser.Get and the extension give no way to add a header.
func (e *env) startFront(k int) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("front listen: %w", err)
	}
	srv := &http.Server{
		Handler:           e.tr.front(k, e.gw),
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	e.fronts = append(e.fronts, srv)
	tlsLn := tls.NewListener(ln, &tls.Config{
		GetCertificate: func(*tls.ClientHelloInfo) (*tls.Certificate, error) {
			e.handshakes.Add(1)
			return e.f.ServingCertificate()
		},
	})
	go func() { _ = srv.Serve(tlsLn) }()
	return ln.Addr().String(), nil
}

// populate writes every pad slot on every node directly, and takes the
// asset contents from the first node's rootfs.
func (e *env) populate() error {
	nodes := e.f.Deployment().Nodes
	if e.slots == nil {
		n := int(nodes[0].VM.Persist().Size()/slotSize) - 1
		for s := 0; s < n; s++ {
			e.slots = append(e.slots, slotPattern(e.seed, s))
		}
		for _, p := range assetPaths(nodes[0]) {
			data, err := nodes[0].VM.FS().ReadFile(p)
			if err != nil {
				return fmt.Errorf("asset %s: %w", p, err)
			}
			e.assets = append(e.assets, data)
		}
		if len(e.slots) == 0 || len(e.assets) == 0 {
			return fmt.Errorf("populate: %d slots, %d assets", len(e.slots), len(e.assets))
		}
		e.slotPaths = itoaPaths("/pad?slot=", len(e.slots))
		e.assetPaths = itoaPaths("/asset?i=", len(e.assets))
	}
	for _, n := range nodes {
		for s, p := range e.slots {
			if err := n.VM.Persist().WriteAt(p, int64(s+1)*slotSize); err != nil {
				return fmt.Errorf("populate slot %d: %w", s, err)
			}
		}
	}
	return nil
}

// useReference gives every worker a keep-alive connection of its own to
// the reference server and sends one request over it.
func (e *env) useReference(r *reference) error {
	for _, w := range e.workers {
		t := &http.Transport{
			TLSClientConfig:     &tls.Config{RootCAs: r.roots, ServerName: refDomain},
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			IdleConnTimeout:     5 * time.Minute,
			DisableCompression:  true,
		}
		w.ref = &http.Client{Transport: t}
		var err error
		if w.refGet, err = http.NewRequestWithContext(e.ctx, http.MethodGet, "https://"+r.addr+"/", nil); err != nil {
			return err
		}
		if err := referenceOp(w, 0); err != nil {
			return fmt.Errorf("reference server: %w", err)
		}
	}
	return nil
}

// resettle readies a fleet whose nodes were replaced for calm traffic
// again: replacement nodes boot with empty volumes, so the pad slots are
// re-written, and a moment of untimed traffic lets the gateway
// re-establish its upstream connections.
func (e *env) resettle() error {
	if err := e.populate(); err != nil {
		return err
	}
	e.gen.closed(settle, steadyOp)
	st := e.gw.Stats()
	e.calmRetries, e.calmShed = st.Retries, st.SheddedRequests
	return nil
}

// close tears the system down and waits for its servers to stop.
func (e *env) close() {
	for _, w := range e.workers {
		w.transport.CloseIdleConnections()
		if w.ref != nil {
			w.ref.CloseIdleConnections()
		}
	}
	for _, srv := range e.fronts {
		_ = srv.Close()
	}
	if e.gw != nil {
		e.gw.Close()
	}
	e.f.Close()
}

// worker is one load-generator client. It owns at most one keep-alive
// connection and has at most one operation in flight.
type worker struct {
	e         *env
	tr        *tracer // nil outside the traced run
	id        int
	addr      string // the gateway address this worker dials
	transport *http.Transport
	client    *http.Client
	gets      map[string]*http.Request // reusable GET requests by path
	ref       *http.Client             // to the reference server
	refGet    *http.Request
	buf       []byte // response body scratch
	classes   [numClasses][]obs
}

func newWorker(e *env, id int, addr string) *worker {
	t := &http.Transport{
		TLSClientConfig: &tls.Config{
			RootCAs:            e.roots,
			ServerName:         domain,
			ClientSessionCache: tls.NewLRUClientSessionCache(4),
		},
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		IdleConnTimeout:     5 * time.Minute,
		DisableCompression:  true,
	}
	return &worker{
		e: e, tr: e.tr, id: id, addr: addr, transport: t,
		client: &http.Client{Transport: t},
		gets:   make(map[string]*http.Request),
		buf:    make([]byte, assetMax+1),
	}
}

func (w *worker) resetClasses() {
	for c := range w.classes {
		w.classes[c] = w.classes[c][:0]
	}
}

// observe records one service time of class c.
func (w *worker) observe(c opClass, since time.Time) {
	w.classes[c] = append(w.classes[c], obs{w.e.gen.now(), int64(time.Since(since))})
}

// get fetches path through the gateway and checks status and body.
func (w *worker) get(path string, want []byte) error {
	req := w.gets[path]
	if req == nil {
		var err error
		req, err = http.NewRequestWithContext(w.e.ctx, http.MethodGet, "https://"+w.addr+path, nil)
		if err != nil {
			return err
		}
		w.gets[path] = req
	}
	return w.do(req, want)
}

// put stores body at path through the gateway.
func (w *worker) put(path string, body []byte) error {
	req, err := http.NewRequestWithContext(w.e.ctx, http.MethodPut, "https://"+w.addr+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	return w.do(req, okBody)
}

func (w *worker) do(req *http.Request, want []byte) error {
	return w.doVia(w.client, req, want)
}

func (w *worker) doVia(c *http.Client, req *http.Request, want []byte) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	n, err := io.ReadFull(resp.Body, w.buf)
	_ = resp.Body.Close()
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return fmt.Errorf("%s %s: read body: %w", req.Method, req.URL.Path, err)
	}
	return checkResponse(req.Method+" "+req.URL.RequestURI(), resp.StatusCode, w.buf[:n], want)
}

// checkResponse is the output check every op ends with: a refused or
// wrong answer is a failed operation.
func checkResponse(what string, status int, got, want []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d", what, status)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: body of %d bytes differs from the expected %d bytes", what, len(got), len(want))
	}
	return nil
}
