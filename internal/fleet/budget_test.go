package fleet

import (
	"context"
	"io"
	"net/http"
	"testing"

	"revelio/internal/amdsp"
	"revelio/internal/attest"
	"revelio/internal/blockdev"
	"revelio/internal/certmgr"
)

// joinCost is everything one AddNode did that costs a P-384 operation or a
// disk copy, counted by the layers that did it.
type joinCost struct {
	signed    amdsp.Stats  // the manufacturer's chips and its KDS
	verified  attest.Stats // the deployment's verifier: SP node, leader and joiner
	diskBytes int64        // bytes of the image the joiner holds privately
}

// TestJoinSignatureBudget pins what a node joining a provisioned fleet
// pays, as counts. Adding an operation back to the join path — a second
// report at boot, a chain link re-proven, a bundle minted in case someone
// asks, a disk image copied — fails here, at any fleet size.
//
// The same test on the commit before the join was cut to this budget
// counted 5 report signatures + 1 VCEK certificate, 2 VCEK derivations,
// 2 chain links + 3 report verifications with no report-proof hit, the
// whole disk image copied (1.8 MB here, ≈ 6 MB with the benchmark's 4 MiB
// volume), and a discovery bundle signed whether or not anyone asked
// (DESIGN.md, "What a join pays").
func TestJoinSignatureBudget(t *testing.T) {
	ctx := context.Background()
	want := joinCost{
		signed: amdsp.Stats{
			ReportsSigned:   3, // joiner: CSR report, upstream RA-TLS evidence; leader: key response
			VCEKKeysDerived: 1, // the new chip's, once, for the chip and its certificate both
			VCEKCertsMinted: 1, // KDS, asked by the SP node for the new chip
		},
		verified: attest.Stats{
			ReportsVerified:    2, // SP node on the joiner's CSR report; joiner on the leader's response
			ChainLinksVerified: 1, // new VCEK → ASK; the carried ASK → ARK is checked once per process
			KeysPrepared:       1, // the new VCEK's key tables, by the SP node with that walk; nobody prepares it again
			ChainHits:          1, // the leader's VCEK, proven at provisioning: its key comes with the proof
			ReportHits:         1, // leader on the CSR report the SP node just verified
		},
		diskBytes: 64 << 10, // the one chunk holding the dm-crypt header and the credentials
	}
	for _, size := range []int{2, 4} {
		f := newTestFleet(t, size)
		d := f.Deployment()
		signed, verified := d.Manufacturer.Stats(), d.Verifier.Stats()
		idx, err := f.AddNode(ctx)
		if err != nil {
			t.Fatalf("n=%d: AddNode: %v", size, err)
		}
		node := d.Nodes[idx]
		got := joinCost{
			signed:    d.Manufacturer.Stats().Sub(signed),
			verified:  d.Verifier.Stats().Sub(verified),
			diskBytes: node.Disk().(*blockdev.Mem).PrivateBytes(),
		}
		if got != want {
			t.Errorf("n=%d: one join cost\n  %+v, want\n  %+v", size, got, want)
		}
		if got.diskBytes >= node.Disk().Size()/10 {
			t.Errorf("n=%d: the joiner holds %d of its %d disk bytes privately", size, got.diskBytes, node.Disk().Size())
		}

		// The discovery bundle is paid for by whoever first asks for it.
		for i, wantSigned := range []uint64{1, 0} {
			before := d.Manufacturer.Stats()
			resp, err := f.webClient().Get("https://" + node.WebAddr() + certmgr.WellKnownPath)
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("n=%d: well-known request %d: status %d", size, i, resp.StatusCode)
			}
			if got := d.Manufacturer.Stats().Sub(before); got != (amdsp.Stats{ReportsSigned: wantSigned}) {
				t.Errorf("n=%d: nonce-less well-known request %d cost %+v, want %d report signatures", size, i, got, wantSigned)
			}
		}
		if err := f.VerifyFleet(ctx); err != nil {
			t.Errorf("n=%d: after the join: %v", size, err)
		}
	}
}
