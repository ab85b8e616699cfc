package attest

import (
	"testing"

	"revelio/internal/race"
	"revelio/internal/sev"
)

// TestReportProofKey: the key runs on every verification, hit or miss, so
// it must not allocate; and it must separate reports that differ in any
// signed field or in the signature, whatever the signature's length.
func TestReportProofKey(t *testing.T) {
	base := sev.Report{Version: sev.ReportVersion, GuestSVN: 1, Signature: []byte{0x30, 0x06, 2, 1, 1, 2, 1, 1}}
	keys := map[proofKey]string{reportProofKey(&base): "base"}
	for name, mutate := range map[string]func(*sev.Report){
		"guest svn":        func(r *sev.Report) { r.GuestSVN++ },
		"report data":      func(r *sev.Report) { r.ReportData[63] ^= 1 },
		"chip id":          func(r *sev.Report) { r.ChipID[0] ^= 1 },
		"signature bit":    func(r *sev.Report) { r.Signature = []byte{0x30, 0x06, 2, 1, 1, 2, 1, 2} },
		"signature longer": func(r *sev.Report) { r.Signature = append(r.Signature[:8:8], 0) },
		"signature absent": func(r *sev.Report) { r.Signature = nil },
		"signature huge":   func(r *sev.Report) { r.Signature = make([]byte, 4096) },
	} {
		r := base
		mutate(&r)
		k := reportProofKey(&r)
		if other, dup := keys[k]; dup {
			t.Errorf("%s: same key as %s", name, other)
		}
		keys[k] = name
	}
	if race.Enabled {
		return // allocation counts are not exact under -race
	}
	if n := testing.AllocsPerRun(100, func() { reportProofKey(&base) }); n != 0 {
		t.Errorf("reportProofKey: %.0f allocations, want 0", n)
	}
}
