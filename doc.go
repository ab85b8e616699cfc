// Package revelio is a pure-Go reproduction of "Trustworthy confidential
// virtual machines for the masses" (MIDDLEWARE 2023): end-to-end
// attestable, SEV-SNP-protected web services, rebuilt on software
// substrates so the full system — hardware root of trust, measured direct
// boot, integrity-protected storage, certificate management, and
// browser-side attestation — runs on a laptop.
//
// # The public SDK
//
// This package is the SDK's front door. The smallest end-to-end flow is
// three calls:
//
//	svc, err := revelio.New(ctx, revelio.WithDomain("pad.example.org"))
//	report, err := svc.Provision(ctx)      // Fig 4: attest + issue + distribute
//	err = svc.ServeWeb(app)                // attested HTTPS from inside the TEE
//
// Around the Service sit the SDK's public packages:
//
//	revelio                      — Service builder, image builds, fleets
//	revelio/attestation          — the typed error taxonomy
//	                               (ErrPolicyRejected, ErrRevoked,
//	                               ErrKDSUnavailable, ...) and the
//	                               verifier's seams (CertSource,
//	                               TrustPolicy)
//	revelio/attestation/snp      — the SEV-SNP provider (report
//	                               bundles, verifier, KDS client,
//	                               simulator)
//	revelio/gateway              — the attested gateway data plane: a
//	                               TLS-terminating reverse proxy whose
//	                               RA-TLS upstreams balance across every
//	                               attested node of a Fleet (gateway.New
//	                               with Source: fleet, Verifier:
//	                               fleet.Mux(), GetCertificate:
//	                               fleet.ServingCertificate), with
//	                               circuit breakers (a node that fails,
//	                               or is slower than the per-try
//	                               timeout, leaves rotation until an
//	                               attested probe re-admits it), retry
//	                               budgets, deadline propagation, and
//	                               load shedding (Config.Resilience), plus
//	                               context-aware routing policy: path
//	                               classes constrained by TCB floor or
//	                               locality, and canary rollouts with
//	                               measurement-based auto-rollback
//	                               (Config.Routing)
//	revelio/webclient            — the end-user browser + web extension
//	revelio/apps/...             — the paper's use cases (cryptpad,
//	                               boundary, ic)
//
// Provision obtains the shared certificate the way the paper's SP node
// does (§5.3.1): a certbot-style DNS-01 flow against an in-process
// Let's Encrypt stand-in.
//
// Every lifecycle operation is context-first (Provision on a Service;
// AddNode, RemoveNode, StageFirmware/RollOut and the other fleet
// scenarios on a Fleet, the one membership owner): cancellation
// surfaces as a wrapped context error, never poisons a fail-closed
// cache, and never leaves a half-joined node behind. Verification
// failures map onto the attestation taxonomy, so callers branch with
// errors.Is from any layer. The exported surface is pinned by api.txt
// (see TestAPISurfaceGolden); examples/ and cmd/ compile against the
// public packages only, enforced in CI.
//
// # Reproduction inventory
//
// The implementation lives under internal/; see DESIGN.md for the system
// inventory, examples/ for runnable entry points, and internal/bench
// for the experiment harness that regenerates the paper's tables and
// figures (go run ./internal/bench/revelio-bench). Its benchmarks
// (go test -bench . ./internal/bench) mirror the harness:
//
//	Table 1  (boot delays)               -> BenchmarkTable1_BootDelays
//	Table 2  (cert operations)           -> BenchmarkTable2_CertOperations
//	Table 3  (client-side attestation)   -> BenchmarkTable3_ClientSide
//	Table 5  (fleet scalability)         -> BenchmarkTable5_FleetScalability
//	Fig 5    (dm-crypt I/O)              -> BenchmarkFig5_DmCryptIO
//	Fig 6    (dm-verity reads)           -> BenchmarkFig6_DmVerityRead
//	ablations                            -> BenchmarkAblation_*
//	chaos    (seeded fault scheduler)    -> go test ./internal/chaos -run '^TestChaosSeeds$'
//	lint     (invariant analyzers)       -> revelio-lint ./...
//
// Fig 5's volume is aes-xts-plain64 as in the paper, and like kernel
// dm-crypt it runs on pipelined AES-NI: internal/xts carries an amd64
// assembly kernel with eight blocks in flight over its own
// constant-time key schedules, chosen by CPUID, and falls back to
// crypto/aes on other architectures or under -tags purego (see
// DESIGN.md's "Storage-engine concurrency model"). The figure prints a
// plain and a dm-crypt row per size, in the paper's 4 KiB requests; Fig 6
// a cold, a tree-warm and a data-warm dm-verity row. Neither storage
// target has an engine option — a guest's storage runs the way its
// request sizes and GOMAXPROCS decide. go test -bench XTS ./internal/xts
// shows the two block engines side by side.
// Table 5 extends the §5.3 deployment story to fleets under churn:
// provisioning and join latency plus steady-state attested-TLS
// throughput swept over fleet sizes, driven by the fleet lifecycle
// engine (see DESIGN.md's "Fleet lifecycle").
// Every attestation verification — a browser session's, a join's, the
// gateway's first dial to a node — goes through the verifier's caches
// (DESIGN.md's "Attestation fast path") and ends in one P-384 signature
// check, sev.Report.Verify, which runs on the repository's own kernel:
// internal/p384, a pure-Go verifier that is variable-time on purpose
// (report, signature and VCEK key are all public) and exports nothing
// but verification; signing and the certificate chain stay on
// crypto/ecdsa and crypto/x509, and crypto/ecdsa is the oracle its
// tests and fuzz target hold it to (see DESIGN.md's "The
// report-signature kernel"). The kernel splits the work by what it
// depends on: a key is prepared once (p384.NewPublicKey: validation and
// the tables of its multiples, about 4.6 KB) and verified against many
// times, and the verifier keeps a VCEK's prepared key inside the proof
// that the VCEK chains to the ARK, so it lives exactly as long as that
// proof does. go test -bench Verify ./internal/p384 shows prepared,
// prepare, oneshot and crypto/ecdsa side by side.
// The attested gateway data plane is measured by the repository's
// benchmark (go run ./benchmark, see benchmark/README.md): its steady
// and churn workloads drive the real fleet behind the real gateway and
// gate on throughput, latency and a strict zero failed requests while
// nodes are replaced (see DESIGN.md's "Attested gateway", "Gateway hot
// path", "Resilience layer", and "Context-aware routing").
// revelio-bench -json emits every result as one machine-readable JSON
// document.
// The chaos sweep (internal/chaos's TestChaosSeeds) is not a
// benchmark but a property check: seeded, deterministic fault schedules
// — churn, KDS outages and partitions, policy storms, crashes mid-join
// and mid-rollout, cert-expiry waves, (with -chaos.rounds=gray)
// stalled-node gray failures, overload storms, and slow-drip bodies,
// and (with -chaos.rounds=routed) broken-canary rollouts and zone bursts against
// a routing policy — run against a live fleet serving attested-TLS
// traffic through the gateway, asserting zero failed requests outside
// fault windows, fail-closed verification, gateway coherence,
// graceful degradation (breaker-open nodes see probes only, retry
// amplification stays under budget, admitted requests meet their
// deadlines), zero out-of-policy requests under the routed profile,
// and leak-free teardown; a failing seed prints its full schedule and
// the go test command (-chaos.rounds=P -chaos.seed=N) that replays it
// byte for byte (see DESIGN.md's "Chaos harness").
// The repo's standing invariants — the error taxonomy, the
// deterministic time/rand seams those chaos replays depend on, the
// context-first lifecycle, and the lock and pool disciplines — are
// additionally mechanized as a custom analyzer suite, revelio-lint,
// run in CI and by go test (see DESIGN.md's "Static analysis").
package revelio
