package core

import (
	"testing"

	"revelio/internal/sev"
)

// Launching every node at once changes no identity: two deployments
// built from one Config get the same chips in the same node order, node
// i on the i-th chip seed and the i-th locality.
func TestConcurrentStandUpKeepsChipOrder(t *testing.T) {
	cfg, _ := testConfig(3)
	cfg.Localities = []string{"zone-a", "zone-b"}
	var chips [2][]sev.ChipID
	for k := range chips {
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		for i, n := range d.Nodes {
			chips[k] = append(chips[k], n.Chip)
			want, err := d.Manufacturer.MintProcessor([]byte{byte(i), 0}, 7)
			if err != nil {
				t.Fatal(err)
			}
			if n.Chip != want.ChipID() {
				t.Errorf("deployment %d node %d is not on chip seed %d", k, i, i)
			}
			if got := n.Locality(); got != cfg.Localities[i%2] {
				t.Errorf("deployment %d node %d locality %q, want %q", k, i, got, cfg.Localities[i%2])
			}
		}
	}
	for i := range chips[0] {
		if chips[0][i] != chips[1][i] {
			t.Errorf("node %d: chips differ between two deployments of one Config", i)
		}
	}
}

// BenchmarkNew is a two-node stand-up up to provisioning: the image
// build, the KDS, the CA and both nodes launched and booted.
func BenchmarkNew(b *testing.B) {
	cfg, _ := testConfig(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		d.Close()
		b.StartTimer()
	}
}
