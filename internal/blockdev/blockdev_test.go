package blockdev

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestMemReadWriteRoundTrip(t *testing.T) {
	dev := NewMem(1024)
	want := []byte("revelio block payload")
	if err := dev.WriteAt(want, 100); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(want))
	if err := dev.ReadAt(got, 100); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("read back %q, want %q", got, want)
	}
}

func TestMemRangeChecks(t *testing.T) {
	dev := NewMem(64)
	tests := []struct {
		name string
		off  int64
		n    int
	}{
		{"negative offset", -1, 4},
		{"past end", 61, 4},
		{"offset at end plus one", 65, 0},
		{"offset plus length wraps", math.MaxInt64 - 2, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			buf := make([]byte, tt.n)
			if err := dev.ReadAt(buf, tt.off); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("ReadAt: err = %v, want ErrOutOfRange", err)
			}
			if err := dev.WriteAt(buf, tt.off); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("WriteAt: err = %v, want ErrOutOfRange", err)
			}
		})
	}
	// Boundary accesses that should succeed.
	if err := dev.ReadAt(make([]byte, 64), 0); err != nil {
		t.Errorf("full-device read: %v", err)
	}
	if err := dev.ReadAt(nil, 64); err != nil {
		t.Errorf("zero-length read at end: %v", err)
	}
}

func TestNewMemFromCopies(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	dev := NewMemFrom(src)
	src[0] = 99
	got := make([]byte, 1)
	if err := dev.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Errorf("device aliased caller slice: got %d, want 1", got[0])
	}
}

func TestCloneIsIndependent(t *testing.T) {
	dev := NewMemFrom([]byte{1, 2, 3, 4})
	clone := dev.Clone()
	if err := dev.WriteAt([]byte{99}, 0); err != nil {
		t.Fatal(err)
	}
	if err := clone.WriteAt([]byte{77}, 3); err != nil {
		t.Fatal(err)
	}
	if got := clone.Snapshot(); !bytes.Equal(got, []byte{1, 2, 3, 77}) {
		t.Errorf("clone = %v, want [1 2 3 77]", got)
	}
	if got := dev.Snapshot(); !bytes.Equal(got, []byte{99, 2, 3, 4}) {
		t.Errorf("original = %v, want [99 2 3 4]", got)
	}
}

func TestFlipBit(t *testing.T) {
	dev := NewMem(8)
	if err := dev.FlipBit(3, 5); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	got := make([]byte, 8)
	if err := dev.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[3] != 1<<5 {
		t.Errorf("byte 3 = %#x, want %#x", got[3], 1<<5)
	}
	if err := dev.FlipBit(3, 5); err != nil {
		t.Fatal(err)
	}
	if err := dev.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[3] != 0 {
		t.Error("double flip did not restore the byte")
	}
	if err := dev.FlipBit(8, 0); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("FlipBit out of range: err = %v, want ErrOutOfRange", err)
	}
	if err := dev.FlipBit(0, 8); err == nil {
		t.Error("FlipBit bit=8 succeeded, want error")
	}
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	inner := NewMem(32)
	if err := inner.WriteAt([]byte("secret"), 0); err != nil {
		t.Fatal(err)
	}
	ro := NewReadOnly(inner)
	if err := ro.WriteAt([]byte("evil"), 0); !errors.Is(err, ErrReadOnly) {
		t.Errorf("WriteAt on read-only: err = %v, want ErrReadOnly", err)
	}
	got := make([]byte, 6)
	if err := ro.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if string(got) != "secret" {
		t.Errorf("read %q, want %q", got, "secret")
	}
	if ro.Size() != 32 {
		t.Errorf("Size = %d, want 32", ro.Size())
	}
}

func TestLinearRemapping(t *testing.T) {
	base := NewMem(100)
	if err := base.WriteAt([]byte{0xAA, 0xBB, 0xCC}, 50); err != nil {
		t.Fatal(err)
	}
	lin, err := NewLinear(base, 50, 10)
	if err != nil {
		t.Fatalf("NewLinear: %v", err)
	}
	if lin.Size() != 10 {
		t.Errorf("Size = %d, want 10", lin.Size())
	}
	got := make([]byte, 3)
	if err := lin.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0xAA, 0xBB, 0xCC}) {
		t.Errorf("linear read = %x", got)
	}
	// Writes through the window land at the right base offset.
	if err := lin.WriteAt([]byte{0x11}, 9); err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	if err := base.ReadAt(one, 59); err != nil {
		t.Fatal(err)
	}
	if one[0] != 0x11 {
		t.Errorf("base[59] = %#x, want 0x11", one[0])
	}
	// Accesses outside the window fail even though the base could hold them.
	if err := lin.ReadAt(make([]byte, 2), 9); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read past window: err = %v, want ErrOutOfRange", err)
	}
}

// TestLinearConstruction is the extent check's table. The last rows are
// the ones an adding check (start+length > size) lets through: the sum
// wraps negative.
func TestLinearConstruction(t *testing.T) {
	base := NewMem(100)
	for _, tc := range []struct {
		name          string
		start, length int64
		ok            bool
	}{
		{"whole device", 0, 100, true},
		{"empty extent at end", 100, 0, true},
		{"oversized extent", 90, 20, false},
		{"negative start", -1, 5, false},
		{"negative length", 5, -1, false},
		{"start past end", 101, 0, false},
		{"start near MaxInt64", math.MaxInt64 - 1, 2, false},
		{"length MaxInt64", 1, math.MaxInt64, false},
		{"both MaxInt64", math.MaxInt64, math.MaxInt64, false},
	} {
		lin, err := NewLinear(base, tc.start, tc.length)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.ok && !errors.Is(err, ErrOutOfRange):
			t.Errorf("%s: device %v, err = %v, want ErrOutOfRange", tc.name, lin, err)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	st := NewStats(NewMem(4096))
	buf := make([]byte, 512)
	for i := 0; i < 3; i++ {
		if err := st.WriteAt(buf, int64(i)*512); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := st.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Failed I/O must not count.
	if err := st.ReadAt(buf, 4096); err == nil {
		t.Fatal("expected out-of-range error")
	}
	rOps, rBytes, wOps, wBytes := st.Counters()
	if rOps != 2 || rBytes != 1024 || wOps != 3 || wBytes != 1536 {
		t.Errorf("counters = (%d,%d,%d,%d), want (2,1024,3,1536)", rOps, rBytes, wOps, wBytes)
	}
}

func TestMemConcurrentAccess(t *testing.T) {
	dev := NewMem(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(g)}, 256)
			off := int64(g) * 256
			for i := 0; i < 100; i++ {
				if err := dev.WriteAt(buf, off); err != nil {
					t.Errorf("WriteAt: %v", err)
					return
				}
				got := make([]byte, 256)
				if err := dev.ReadAt(got, off); err != nil {
					t.Errorf("ReadAt: %v", err)
					return
				}
				if !bytes.Equal(got, buf) {
					t.Errorf("goroutine %d read back wrong data", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Property: a write followed by a read at the same offset returns the data,
// for arbitrary in-range windows.
func TestMemWriteReadProperty(t *testing.T) {
	dev := NewMem(4096)
	f := func(data []byte, off uint16) bool {
		o := int64(off) % 2048
		if len(data) > 2048 {
			data = data[:2048]
		}
		if err := dev.WriteAt(data, o); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := dev.ReadAt(got, o); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
