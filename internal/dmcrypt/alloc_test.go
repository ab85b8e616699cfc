package dmcrypt

import (
	"testing"

	"revelio/internal/blockdev"
	"revelio/internal/race"
)

// newDevice formats a small volume over an in-memory substrate.
func newDevice(t testing.TB, dataBytes int64) *Device {
	t.Helper()
	raw := blockdev.NewMem(dataBytes + HeaderSectors*SectorSize)
	dev, err := Format(raw, []byte("alloc-test"), Options{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestSerialReadZeroAllocs is the allocs/op guard for single-sector
// requests: an aligned read decrypts in place in the caller's buffer and
// a write goes through spanPool, so steady-state aligned reads and
// writes must not allocate at all.
func TestSerialReadZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	dev := newDevice(t, 64*SectorSize)
	buf := make([]byte, SectorSize)
	if err := dev.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		if err := dev.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("serial single-sector ReadAt: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := dev.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("serial single-sector WriteAt: %.1f allocs/op, want 0", allocs)
	}
}

// TestBatchedSpanZeroAllocs is the allocs/op guard for the span a 64 KiB
// pad write or read takes: the span, read-modify-write edge sectors
// included, comes from spanPool, so neither the aligned nor the
// unaligned request allocates in steady state.
func TestBatchedSpanZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	dev := newDevice(t, 256*1024)
	buf := make([]byte, 64*1024)
	for _, tc := range []struct {
		name string
		off  int64
	}{{"aligned", 64 * 1024}, {"unaligned", 64*1024 + 100}} {
		if allocs := testing.AllocsPerRun(100, func() {
			if err := dev.WriteAt(buf, tc.off); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s 64 KiB WriteAt: %.1f allocs/op, want 0", tc.name, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := dev.ReadAt(buf, tc.off); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s 64 KiB ReadAt: %.1f allocs/op, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkSerialSectorRead reports allocs/op for single-sector reads
// (run with -benchmem to see the guard's numbers over time).
func BenchmarkSerialSectorRead(b *testing.B) {
	dev := newDevice(b, 64*SectorSize)
	buf := make([]byte, SectorSize)
	if err := dev.WriteAt(buf, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(SectorSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dev.ReadAt(buf, int64(i%64)*SectorSize); err != nil {
			b.Fatal(err)
		}
	}
}
