package bench

import (
	"context"
	"fmt"
	"time"

	"revelio/internal/amdsp"
	"revelio/internal/attest"
	"revelio/internal/blockdev"
	"revelio/internal/fleet"
)

// Table5Config drives the fleet-scalability experiment ("Table 5"): how
// provisioning and join latency grow with fleet size, and how many
// attested-TLS requests per second the web tier sustains in steady
// state, swept over node counts.
type Table5Config struct {
	// NodeCounts lists the fleet sizes to sweep (paper-style 1–64
	// simulated nodes).
	NodeCounts []int
	// Requests is the number of steady-state requests per cell.
	Requests int
	// Clients is the number of concurrent traffic clients.
	Clients int
	// SPNetRTT/KDSRTT/CARTT inject the paper's network conditions into
	// provisioning (steady-state serving never touches those paths).
	SPNetRTT, KDSRTT, CARTT time.Duration
}

// DefaultTable5Config approximates the paper's deployment conditions at
// a sweep that still finishes in CI-scale time.
func DefaultTable5Config() Table5Config {
	return Table5Config{
		NodeCounts: []int{1, 4, 16, 64},
		Requests:   2048,
		Clients:    16,
		SPNetRTT:   2 * time.Millisecond,
		KDSRTT:     20 * time.Millisecond,
		CARTT:      100 * time.Millisecond,
	}
}

func (c Table5Config) withDefaults() Table5Config {
	if len(c.NodeCounts) == 0 {
		c.NodeCounts = []int{1, 4, 16, 64}
	}
	if c.Requests <= 0 {
		c.Requests = 2048
	}
	if c.Clients <= 0 {
		c.Clients = 16
	}
	return c
}

// Table5Row is one fleet size.
type Table5Row struct {
	Nodes int `json:"nodes"`
	// Build is the cost of standing the fleet up: image build, boots,
	// measured launches, control plane.
	Build time.Duration `json:"build_ns"`
	// Provision is the full Fig 4 flow over all nodes; PerNode divides
	// out the fleet size (the paper's D3 claim: only retrieval,
	// validation and distribution scale, never CA issuance).
	Provision time.Duration `json:"provision_ns"`
	PerNode   time.Duration `json:"provision_per_node_ns"`
	// Join is the latency of one node joining the standing fleet through
	// the single-node §5.3.1 path (attest + key acquisition, no CA).
	Join time.Duration `json:"join_ns"`
	// JoinOps is what that join did, as counts no machine's speed can
	// move — the D3 claim in checkable form: the same at every fleet size.
	JoinOps JoinOps `json:"join_ops"`
	// Requests/PerSec measure the steady-state attested-TLS serving
	// plane across the whole fleet.
	Requests int           `json:"requests"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	PerSec   float64       `json:"requests_per_sec"`
	// CertGeneration is the CA-bound share of Provision — the step that
	// must stay constant as the fleet grows.
	CertGeneration time.Duration `json:"cert_generation_ns"`
}

// JoinOps counts the P-384 operations and the disk bytes one join cost.
type JoinOps struct {
	// Signed is the private-key work of the manufacturer's chips and KDS.
	Signed amdsp.Stats `json:"signed"`
	// Verified is the work of the deployment's verifier, shared by the SP
	// node, the leader and the joiner.
	Verified attest.Stats `json:"verified"`
	// DiskBytes is how much of the disk image the joiner holds privately
	// once it serves (the rest it shares with the image, copy-on-write).
	DiskBytes int64 `json:"disk_bytes"`
}

// Table5Result reports the sweep.
type Table5Result struct {
	Rows []Table5Row `json:"rows"`
}

// RunFleetScalability produces Table 5. Every cell builds a live fleet
// (real boots, real provisioning, real TLS) and then measures one join
// plus a steady-state traffic burst against the well-known attestation
// endpoint.
func RunFleetScalability(cfg Table5Config) (*Table5Result, error) {
	cfg = cfg.withDefaults()
	res := &Table5Result{}
	ctx := context.Background()
	for _, n := range cfg.NodeCounts {
		if n <= 0 {
			return nil, fmt.Errorf("bench: table5: invalid node count %d", n)
		}
		row, err := table5Cell(ctx, cfg, n)
		if err != nil {
			return nil, fmt.Errorf("bench: table5 n=%d: %w", n, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func table5Cell(ctx context.Context, cfg Table5Config, n int) (Table5Row, error) {
	row := Table5Row{Nodes: n}

	t0 := time.Now()
	f, err := fleet.New(ctx, fleet.Config{
		Nodes:    n,
		Domain:   "table5.example.org",
		SPNetRTT: cfg.SPNetRTT,
		KDSRTT:   cfg.KDSRTT,
		CARTT:    cfg.CARTT,
	})
	if err != nil {
		return row, err
	}
	defer f.Close()
	// fleet.New provisions inside; re-run provisioning to time the full
	// Fig 4 flow in isolation from build/boot.
	row.Build = time.Since(t0)

	prov, err := f.RotateCertificates(ctx)
	if err != nil {
		return row, err
	}
	tm := prov.Timings
	row.Provision = tm.EvidenceRetrieval + tm.EvidenceValidation + tm.CertGeneration + tm.CertDistribution
	row.PerNode = row.Provision / time.Duration(n)
	row.CertGeneration = tm.CertGeneration

	// Join latency: one node scaling out through the standing leader.
	d := f.Deployment()
	signed, verified := d.Manufacturer.Stats(), d.Verifier.Stats()
	t0 = time.Now()
	idx, err := f.AddNode(ctx)
	if err != nil {
		return row, err
	}
	row.Join = time.Since(t0)
	row.JoinOps = JoinOps{
		Signed:   d.Manufacturer.Stats().Sub(signed),
		Verified: d.Verifier.Stats().Sub(verified),
	}
	if disk, ok := d.Nodes[idx].Disk().(*blockdev.Mem); ok {
		row.JoinOps.DiskBytes = disk.PrivateBytes()
	}
	// Return to the swept size before measuring steady state.
	if err := f.RemoveNode(ctx, idx); err != nil {
		return row, err
	}

	// Steady state: Clients concurrent attested-TLS clients spreading
	// Requests across the fleet round-robin.
	elapsed, done, err := f.ServeBurst(ctx, cfg.Clients, cfg.Requests)
	if err != nil {
		return row, err
	}
	row.Requests = done
	row.Elapsed = elapsed
	if elapsed > 0 {
		row.PerSec = float64(done) / elapsed.Seconds()
	}
	return row, nil
}

// Render prints the table in the paper's layout.
func (r *Table5Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Nodes),
			fmtMS(row.Build),
			fmtMS(row.Provision),
			fmtMS(row.PerNode),
			fmtMS(row.CertGeneration),
			fmtMS(row.Join),
			fmt.Sprintf("%.1f", row.PerSec),
		})
	}
	return "Table 5: Fleet scalability (provisioning latency and attested-TLS throughput vs fleet size)\n" +
		table([]string{"Nodes", "Build(ms)", "Provision(ms)", "PerNode(ms)", "CA(ms)", "Join(ms)", "Reqs/sec"}, rows)
}
