package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"time"

	"revelio/attestation/snp"
	"revelio/internal/amdsp"
	"revelio/internal/attest"
	"revelio/internal/blockdev"
	"revelio/internal/browser"
	"revelio/internal/certmgr"
	"revelio/internal/dmcrypt"
	"revelio/internal/dmverity"
	"revelio/internal/hypervisor"
	"revelio/internal/imagebuild"
	"revelio/internal/kds"
	"revelio/internal/measure"
	"revelio/internal/ratls"
	"revelio/internal/sev"
	"revelio/internal/vm"
	"revelio/internal/webext"
	"revelio/internal/xts"
)

// The layer ladder: fixed-iteration timed calls into public functions,
// one rung per layer a request or a lifecycle operation crosses, so that
// adjacent rungs attribute the whole path's cost. Every rung reports the
// median of its iterations. Nothing here is gated.

// rungs collects ladder values and remembers the first failed call.
type rungs struct {
	res *result
	err error
}

// sample calls the self-timing f n times after warm unrecorded calls and
// returns the median duration it reported.
func (r *rungs) sample(warm, n int, f func() (time.Duration, error)) time.Duration {
	ds := make([]time.Duration, 0, n)
	for i := -warm; i < n && r.err == nil; i++ {
		d, err := f()
		r.res.Attempted++
		if err != nil {
			r.res.Failed++
			r.err = err
		}
		if i >= 0 {
			ds = append(ds, d)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[len(ds)/2]
}

// timeN is sample for a call timed as a whole.
func (r *rungs) timeN(warm, n int, f func() error) time.Duration {
	return r.sample(warm, n, func() (time.Duration, error) {
		t0 := time.Now()
		err := f()
		return time.Since(t0), err
	})
}

func (r *rungs) us(name string, warm, n int, f func() error) {
	r.res.Metrics[name] = float64(r.timeN(warm, n, f)) / 1e3
}

func (r *rungs) ms(name string, warm, n int, f func() error) {
	r.res.Metrics[name] = float64(r.timeN(warm, n, f)) / 1e6
}

// once times a single call in ms, for rungs whose iterations each need
// set-up of their own; the caller takes the median.
func (r *rungs) once(f func() error) float64 { return float64(r.timeN(0, 1, f)) / 1e6 }

// usOf is us for a call that times the part of itself that counts.
func (r *rungs) usOf(name string, n int, f func() (time.Duration, error)) {
	r.res.Metrics[name] = float64(r.sample(1, n, f)) / 1e3
}

// allocs reports heap allocations per call of f over n calls, from
// runtime.MemStats deltas; background goroutines are amortized by n.
func (r *rungs) allocs(name string, n int, f func() error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n && r.err == nil; i++ {
		r.err = f()
	}
	runtime.ReadMemStats(&m1)
	r.res.Metrics[name] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// nullWriter is a ResponseWriter that keeps the status and drops the body.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(s int)           { w.status = s }

// serve calls h with req and fails unless it answered 200.
func serve(h http.Handler, req *http.Request) error {
	w := &nullWriter{h: make(http.Header), status: http.StatusOK}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		return fmt.Errorf("%s: status %d", req.URL.Path, w.status)
	}
	return nil
}

func localRequest(path, rawQuery string) *http.Request {
	return &http.Request{
		Method: http.MethodGet, URL: &url.URL{Scheme: "http", Host: domain, Path: path, RawQuery: rawQuery},
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Host: domain, RemoteAddr: "127.0.0.1:9",
	}
}

// runLadder measures every rung and adds it to res.
func runLadder(ctx context.Context, res *result) error {
	r := &rungs{res: res}
	for _, part := range []func(context.Context, *rungs) error{ladderLive, ladderAttest, ladderStorage} {
		runtime.GC()
		if err := part(ctx, r); err != nil {
			return err
		}
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

// keepAliveGet returns a checked GET / over one keep-alive connection to
// addr under cfg, and the transport to close afterwards.
func keepAliveGet(ctx context.Context, addr string, cfg *tls.Config) (func() error, *http.Transport, error) {
	cfg.ServerName = domain
	t := &http.Transport{TLSClientConfig: cfg, MaxConnsPerHost: 1, DisableCompression: true}
	c := &http.Client{Transport: t}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "https://"+addr+"/", nil)
	if err != nil {
		return nil, nil, err
	}
	buf := make([]byte, 16)
	return func() error {
		resp, err := c.Do(req)
		if err != nil {
			return err
		}
		n, _ := io.ReadFull(resp.Body, buf)
		_ = resp.Body.Close()
		return checkResponse("GET "+addr, resp.StatusCode, buf[:n], okBody)
	}, t, nil
}

// handshake dials addr under cfg, timing exactly the TCP connect and the
// TLS handshake, then spends one untimed request on the connection so
// that a session ticket, if the server sends one, is taken in.
func handshake(ctx context.Context, addr string, cfg *tls.Config, wantResumed bool) func() (time.Duration, error) {
	d := &tls.Dialer{Config: cfg}
	return func() (time.Duration, error) {
		t0 := time.Now()
		c, err := d.DialContext(ctx, "tcp", addr)
		took := time.Since(t0)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		if got := c.(*tls.Conn).ConnectionState().DidResume; got != wantResumed {
			return 0, fmt.Errorf("handshake to %s: resumed=%v, want %v", addr, got, wantResumed)
		}
		if _, err := fmt.Fprintf(c, "GET / HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n", domain); err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, c)
		return took, err
	}
}

// ladderLive measures the rungs that need the stood-up system: the data
// plane from the gateway handler down to a node, RA-TLS, the end-user
// path, and the fleet's lifecycle operations on an idle fleet.
func ladderLive(ctx context.Context, r *rungs) error {
	e, err := standUp(ctx, r.res.Seed, nil)
	if err != nil {
		return fmt.Errorf("ladder stand-up: %w", err)
	}
	defer e.close()
	f, d := e.f, e.f.Deployment()
	node := d.Nodes[0]

	// Data plane: gateway handler through the live RA-TLS transport, then
	// a node reached directly over each of its two listeners.
	root := localRequest("/", "")
	gwServe := func() error { return serve(e.gw, root) }
	r.us("gateway.serve_us", 64, 2000, gwServe)
	r.allocs("gateway.serve_allocs", 1000, gwServe)
	direct, t1, err := keepAliveGet(ctx, node.WebAddr(), &tls.Config{RootCAs: e.roots})
	if err != nil {
		return err
	}
	defer t1.CloseIdleConnections()
	r.us("core.node_direct_us", 64, 2000, direct)
	r.allocs("core.node_direct_allocs", 1000, direct)
	upstream, t2, err := keepAliveGet(ctx, node.UpstreamAddr(), ratls.ProviderClientConfig(f.Mux()))
	if err != nil {
		return err
	}
	defer t2.CloseIdleConnections()
	r.us("core.node_upstream_us", 64, 2000, upstream)
	const batch = 10000
	r.res.Metrics["fleet.acquire_ns"] = float64(r.timeN(2, 20, func() error {
		for i := 0; i < batch; i++ {
			_, release := f.Acquire()
			release()
		}
		return nil
	})) / batch
	var snapSink int
	r.res.Metrics["fleet.endpoints_ns"] = float64(r.timeN(2, 20, func() error {
		for i := 0; i < batch; i++ {
			snapSink += len(f.Endpoints().Endpoints)
		}
		return nil
	})) / batch
	if snapSink == 0 {
		return fmt.Errorf("ladder: empty endpoint snapshots")
	}

	// RA-TLS: what a handshake to a node costs, and its parts.
	full := ratls.ProviderClientConfig(f.Mux())
	r.usOf("ratls.handshake_full_us", 100, handshake(ctx, node.UpstreamAddr(), full, false))
	resumed := ratls.ProviderClientConfig(f.Mux())
	resumed.ClientSessionCache = tls.NewLRUClientSessionCache(4)
	prime := handshake(ctx, node.UpstreamAddr(), resumed, false)
	if _, err := prime(); err != nil {
		return fmt.Errorf("ladder: prime resumption: %w", err)
	}
	r.usOf("ratls.handshake_resumed_us", 100, handshake(ctx, node.UpstreamAddr(), resumed, true))
	var minted tls.Certificate
	issuer := snp.NewNodeProvider(node.VM, d.Verifier)
	r.us("ratls.create_cert_us", 2, 100, func() (err error) {
		minted, err = ratls.CreateProviderCertificate(ctx, issuer, domain)
		return err
	})
	if r.err != nil {
		return r.err
	}
	leaf, err := x509.ParseCertificate(minted.Certificate[0])
	if err != nil {
		return err
	}
	r.us("ratls.verify_cert_us", 2, 500, func() error {
		_, err := ratls.VerifyProviderCertificate(ctx, f.Mux(), leaf)
		return err
	})
	memo := ratls.ProviderPeerVerifier(f.Mux())
	r.us("ratls.verify_memo_us", 2, 2000, func() error { return memo(minted.Certificate, nil) })

	// The end-user path: the agent's bundle endpoint called in process,
	// a plain browser GET through the gateway, and the extension's own
	// split of an attested and a same-session navigation.
	nonce := localRequest(certmgr.WellKnownPath, "nonce=00112233445566778899aabbccddeeff")
	r.us("certmgr.wellknown_nonce_us", 2, 300, func() error { return serve(node.Agent, nonce) })
	cached := localRequest(certmgr.WellKnownPath, "")
	r.us("certmgr.wellknown_cached_us", 2, 2000, func() error { return serve(node.Agent, cached) })
	b := browser.New(e.roots, 0)
	b.Resolve(domain, e.gw.Addr())
	r.us("browser.get_us", 2, 300, func() error {
		resp, err := b.Get(ctx, domain, "/")
		if err != nil {
			return err
		}
		return checkResponse("browser GET /", resp.Status, resp.Body, okBody)
	})
	ext := webext.New(b, d.Verifier)
	ext.RegisterSite(domain, e.golden)
	r.usOf("webext.attest_us", 200, func() (time.Duration, error) {
		ext.ResetSession()
		_, m, err := ext.Navigate(ctx, domain, "/")
		if err != nil {
			return 0, err
		}
		return m.AttestationTime, nil
	})
	r.usOf("webext.conn_validation_us", 200, func() (time.Duration, error) {
		_, m, err := ext.Navigate(ctx, domain, "/")
		if err != nil {
			return 0, err
		}
		return m.ConnValidation, nil
	})
	r.us("rootfs.read_file_us", 2, 100, func() error {
		_, err := node.VM.FS().ReadFile("usr/bin/cryptpad")
		return err
	})

	// Lifecycle on the idle fleet: what a join costs with no traffic to
	// contend with, and its parts.
	var added int
	var prov *certmgr.ProvisionResult
	r.ms("fleet.rotate_ms", 1, 9, func() (err error) {
		prov, err = f.RotateCertificates(ctx)
		return err
	})
	var adds, removes []float64
	for i := 0; i < 9 && r.err == nil; i++ {
		adds = append(adds, r.once(func() (err error) {
			added, err = f.AddNode(ctx)
			return err
		}))
		removes = append(removes, r.once(func() error { return f.RemoveNode(ctx, added) }))
	}
	r.res.Metrics["fleet.add_node_ms"], r.res.Metrics["fleet.remove_node_ms"] = median(adds), median(removes)
	r.ms("fleet.replace_idle_ms", 1, 15, func() error {
		_, err := f.ReplaceNode(ctx, 0)
		return err
	})
	// A launched, unprovisioned node handed the shared credentials by
	// the SP: the provisioning share of a join.
	var provisions []float64
	for i := 0; i < 7 && r.err == nil; i++ {
		idx, err := d.AddNode(ctx)
		if err != nil {
			return err
		}
		provisions = append(provisions, r.once(func() error {
			return d.SP.ProvisionNode(ctx, d.Nodes[idx].ControlURL(), f.LeaderURL(), prov.CertDER)
		}))
		if _, err := d.RemoveNode(ctx, idx); err != nil {
			return err
		}
	}
	r.res.Metrics["certmgr.provision_ms"] = median(provisions)

	// A guest boot from the deployment's image, with the guest's own
	// timing of its stages; and the image build a fleet does once.
	var boots [4][]float64
	for i := 0; i < 7 && r.err == nil; i++ {
		chip, err := d.Manufacturer.MintProcessor([]byte{0xbe, byte(i)}, 7)
		if err != nil {
			return err
		}
		var guest *vm.VM
		took := r.timeN(0, 1, func() error {
			g, err := hypervisor.New(chip).Launch(hypervisor.Config{
				Firmware: d.Firmware,
				Blobs:    hypervisor.BootBlobs{Kernel: d.Image.Kernel, Initrd: d.Image.Initrd, Cmdline: d.Image.Cmdline},
			})
			if err != nil {
				return err
			}
			guest, err = vm.Boot(g, vm.BootConfig{
				Disk: blockdev.NewMemFrom(d.Image.Disk.Snapshot()), Table: d.Image.Table, Domain: domain,
			})
			return err
		})
		if r.err != nil {
			break
		}
		tm := guest.Timings()
		for j, v := range []time.Duration{took, tm.DmVeritySetup + tm.DmVerityVerify, tm.DmCryptSetup, tm.IdentityCreation} {
			boots[j] = append(boots[j], float64(v)/1e6)
		}
	}
	for j, name := range []string{"vm.boot_ms", "vm.verity_setup_ms", "vm.crypt_unlock_ms", "vm.identity_ms"} {
		r.res.Metrics[name] = median(boots[j])
	}
	r.ms("imagebuild.build_ms", 1, 5, func() error {
		reg := imagebuild.NewRegistry()
		spec := imagebuild.CryptpadSpec(imagebuild.PublishUbuntuBase(reg))
		spec.PersistSize = persistSize
		_, err := imagebuild.NewBuilder(reg).Build(spec)
		return err
	})
	return nil
}

// ladderAttest measures report verification by cache tier, the KDS
// client, and report signing, on a chip and KDS of the ladder's own.
func ladderAttest(ctx context.Context, r *rungs) error {
	mfr, err := amdsp.NewManufacturer([]byte("benchmark-ladder"))
	if err != nil {
		return err
	}
	sp, err := mfr.MintProcessor([]byte("benchmark-chip"), 7)
	if err != nil {
		return err
	}
	h := sp.LaunchStart(0, 0)
	if err := sp.LaunchUpdate(h, measure.PageNormal, 0, []byte("fw"), "ovmf"); err != nil {
		return err
	}
	if _, err := sp.LaunchFinish(h); err != nil {
		return err
	}
	guest, err := sp.GuestChannel(h)
	if err != nil {
		return err
	}
	server := httptest.NewServer(kds.NewServer(mfr))
	defer server.Close()
	httpc := &http.Client{}
	defer httpc.CloseIdleConnections()
	policy := attest.NewStaticGolden(guest.Measurement())

	var report *sev.Report
	var n uint16
	sign := func() (err error) {
		n++
		report, err = guest.Report(sev.ReportData{0x44, byte(n), byte(n >> 8)})
		return err
	}
	r.us("sev.report_sign_us", 2, 200, sign)
	if r.err != nil {
		return r.err
	}
	vcekPub := sp.VCEKPublic()
	r.us("sev.report_verify_us", 2, 200, func() error { return report.Verify(vcekPub) })

	cold := kds.NewClient(server.URL, httpc)
	r.us("kds.vcek_miss_us", 2, 200, func() error {
		_, err := cold.VCEK(ctx, sp.ChipID(), sp.TCB())
		return err
	})
	r.us("kds.cert_chain_miss_us", 2, 200, func() error {
		_, _, err := cold.CertChain(ctx)
		return err
	})
	warm := kds.NewClient(server.URL, httpc)
	warm.SetCaching(true)
	r.us("kds.vcek_hit_us", 2, 2000, func() error {
		_, err := warm.VCEK(ctx, sp.ChipID(), sp.TCB())
		return err
	})

	// Cold: no proof cache and no KDS caching. Chain hit: the VCEK chain
	// is proven but each report is new, as a nonce-bound report is.
	// Report hit: the very same report again.
	r.us("attest.verify_cold_us", 2, 100, func() error {
		v := attest.NewVerifier(kds.NewClient(server.URL, httpc), policy, attest.WithoutReportCache())
		_, err := v.VerifyReport(ctx, report)
		return err
	})
	fast := attest.NewVerifier(warm, policy)
	r.usOf("attest.verify_chain_hit_us", 200, func() (time.Duration, error) {
		if err := sign(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err := fast.VerifyReport(ctx, report)
		return time.Since(t0), err
	})
	r.us("attest.verify_report_hit_us", 2, 2000, func() error {
		_, err := fast.VerifyReport(ctx, report)
		return err
	})
	return nil
}

// ladderStorage measures XTS, dm-crypt and dm-verity on in-memory
// devices of the persistent volume's and the rootfs's size.
func ladderStorage(_ context.Context, r *rungs) error {
	rng := rand.New(rand.NewSource(int64(r.res.Seed)))
	key := make([]byte, 64)
	rng.Read(key)
	src, dst := make([]byte, slotSize), make([]byte, slotSize)
	rng.Read(src)
	cipher, err := xts.NewCipher(key)
	if err != nil {
		return err
	}
	mbps := func(d time.Duration) float64 { return slotSize / 1e6 / d.Seconds() }
	r.res.Metrics["xts.encrypt_mbps"] = mbps(r.timeN(4, 400, func() error {
		return cipher.EncryptSectors(dst, src, 0, blockdev.SectorSize)
	}))
	r.res.Metrics["xts.decrypt_mbps"] = mbps(r.timeN(4, 400, func() error {
		return cipher.DecryptSectors(src, dst, 0, blockdev.SectorSize)
	}))

	// dm-crypt over a device that counts the I/Os it is handed.
	var inner *blockdev.Stats
	var vol *dmcrypt.Device
	pass := []byte("benchmark-sealing-key")
	r.ms("dmcrypt.format_ms", 1, 5, func() (err error) {
		inner = blockdev.NewStats(blockdev.NewMem(persistSize))
		vol, err = dmcrypt.Format(inner, pass, dmcrypt.Options{})
		return err
	})
	r.ms("dmcrypt.open_ms", 1, 5, func() (err error) {
		vol, err = dmcrypt.Open(inner, pass)
		return err
	})
	if r.err != nil {
		return r.err
	}
	small := src[:4096]
	r.us("dmcrypt.write_64k_us", 4, 400, func() error { return vol.WriteAt(src, slotSize) })
	r.us("dmcrypt.write_64k_unaligned_us", 4, 400, func() error { return vol.WriteAt(src, slotSize+100) })
	r.us("dmcrypt.write_4k_us", 4, 2000, func() error { return vol.WriteAt(small, slotSize) })
	r.us("dmcrypt.read_64k_us", 4, 400, func() error { return vol.ReadAt(dst, slotSize) })
	r.us("dmcrypt.read_4k_us", 4, 2000, func() error { return vol.ReadAt(small, slotSize) })
	ios := func() int64 {
		ro, _, wo, _ := inner.Counters()
		return ro + wo
	}
	before := ios()
	if err := vol.WriteAt(src, slotSize); err != nil {
		return err
	}
	r.res.Metrics["blockdev.inner_ios_per_write_64k"] = float64(ios() - before)
	before = ios()
	if err := vol.ReadAt(dst, slotSize); err != nil {
		return err
	}
	r.res.Metrics["blockdev.inner_ios_per_read_64k"] = float64(ios() - before)

	// dm-verity over 2 MiB, about the rootfs's size.
	const veritySize = 2 << 20
	data := make([]byte, veritySize)
	rng.Read(data)
	dataDev := blockdev.NewMemFrom(data)
	var hashDev *blockdev.Mem
	var meta *dmverity.Metadata
	r.ms("dmverity.format_ms", 1, 5, func() (err error) {
		hashDev, meta, err = dmverity.Format(dataDev, dmverity.Params{BlockSize: dmverity.DefaultBlockSize})
		return err
	})
	if r.err != nil {
		return r.err
	}
	dev, err := dmverity.Open(dataDev, hashDev, meta, meta.RootHash)
	if err != nil {
		return err
	}
	r.ms("dmverity.verify_all_ms", 1, 9, dev.VerifyAll)
	r.us("dmverity.read_4k_warm_us", 4, 2000, func() error { return dev.ReadAt(small, 0) })
	r.us("dmverity.read_64k_warm_us", 4, 400, func() error { return dev.ReadAt(dst, 0) })
	cold, err := dmverity.OpenWithConfig(dataDev, hashDev, meta, meta.RootHash, dmverity.Config{CacheBlocks: 1})
	if err != nil {
		return err
	}
	r.us("dmverity.read_4k_cold_us", 4, 2000, func() error {
		return cold.ReadAt(small, int64(rng.Intn(veritySize/4096))*4096)
	})
	return nil
}
