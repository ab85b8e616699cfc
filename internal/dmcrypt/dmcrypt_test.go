package dmcrypt

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"revelio/internal/blockdev"
)

const testVolSize = headerBytes + 256*SectorSize

func formatVol(t testing.TB, passphrase string) (*blockdev.Mem, *Device) {
	t.Helper()
	raw := blockdev.NewMem(testVolSize)
	dev, err := Format(raw, []byte(passphrase), Options{Iterations: 10})
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return raw, dev
}

func TestFormatOpenRoundTrip(t *testing.T) {
	raw, dev := formatVol(t, "sealing-key")
	msg := []byte("revelio persistent state: TLS private key material")
	if err := dev.WriteAt(msg, 1000); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	reopened, err := Open(raw, []byte("sealing-key"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got := make([]byte, len(msg))
	if err := reopened.ReadAt(got, 1000); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("read %q, want %q", got, msg)
	}
}

func TestWrongPassphraseRejected(t *testing.T) {
	raw, _ := formatVol(t, "correct")
	if _, err := Open(raw, []byte("wrong")); !errors.Is(err, ErrBadPassphrase) {
		t.Errorf("Open with wrong passphrase: err = %v, want ErrBadPassphrase", err)
	}
}

// TestMeasurementBoundKey models the paper's sealing property: a VM with a
// different measurement derives a different sealing key and cannot unlock
// the volume.
func TestMeasurementBoundKey(t *testing.T) {
	goodKey := bytes.Repeat([]byte{0x11}, 32) // sealing key of the expected VM
	badKey := bytes.Repeat([]byte{0x22}, 32)  // sealing key of a tampered VM
	raw := blockdev.NewMem(testVolSize)
	dev, err := Format(raw, goodKey, Options{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteAt([]byte("user data"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(raw, badKey); !errors.Is(err, ErrBadPassphrase) {
		t.Errorf("tampered VM unlocked the volume: err = %v", err)
	}
	if _, err := Open(raw, goodKey); err != nil {
		t.Errorf("expected VM failed to unlock: %v", err)
	}
}

func TestCiphertextIsNotPlaintext(t *testing.T) {
	raw, dev := formatVol(t, "pw")
	plain := bytes.Repeat([]byte("SECRET01"), SectorSize/8)
	if err := dev.WriteAt(plain, 0); err != nil {
		t.Fatal(err)
	}
	onDisk := make([]byte, SectorSize)
	if err := raw.ReadAt(onDisk, headerBytes); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(onDisk, []byte("SECRET01")) {
		t.Error("plaintext visible in the data area")
	}
	// Identical plaintext sectors must differ on disk (XTS tweak).
	if err := dev.WriteAt(plain, SectorSize); err != nil {
		t.Fatal(err)
	}
	second := make([]byte, SectorSize)
	if err := raw.ReadAt(second, headerBytes+SectorSize); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(onDisk, second) {
		t.Error("identical sectors encrypt identically")
	}
}

func TestUnalignedWritesAndReads(t *testing.T) {
	_, dev := formatVol(t, "pw")
	want := make([]byte, int(dev.Size()))
	// A fresh encrypted volume decrypts to garbage, exactly like real
	// dm-crypt before mkfs: zero-fill it so the model starts consistent.
	if err := dev.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	// Scatter random unaligned writes, mirroring into the model.
	for i := 0; i < 50; i++ {
		off := rng.Int63n(dev.Size() - 1)
		n := 1 + rng.Intn(int(dev.Size()-off))
		if n > 3000 {
			n = 3000
		}
		chunk := make([]byte, n)
		rng.Read(chunk)
		if err := dev.WriteAt(chunk, off); err != nil {
			t.Fatalf("WriteAt(off=%d,n=%d): %v", off, n, err)
		}
		copy(want[off:], chunk)
	}
	got := make([]byte, len(want))
	if err := dev.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("device state diverged from model after unaligned writes")
	}
}

func TestHeaderTamperDetected(t *testing.T) {
	raw, _ := formatVol(t, "pw")
	if err := raw.FlipBit(16, 0); err != nil { // inside the salt
		t.Fatal(err)
	}
	if _, err := Open(raw, []byte("pw")); err == nil {
		t.Error("Open succeeded with tampered header")
	}
}

func TestHeaderGarbage(t *testing.T) {
	raw := blockdev.NewMem(testVolSize) // all zeros, no header
	if _, err := Open(raw, []byte("pw")); !errors.Is(err, ErrBadHeader) {
		t.Errorf("Open on zeroed device: err = %v, want ErrBadHeader", err)
	}
	tiny := blockdev.NewMem(SectorSize)
	if _, err := Open(tiny, []byte("pw")); !errors.Is(err, ErrDeviceTooSmall) {
		t.Errorf("Open on tiny device: err = %v, want ErrDeviceTooSmall", err)
	}
	if _, err := Format(tiny, []byte("pw"), Options{}); !errors.Is(err, ErrDeviceTooSmall) {
		t.Errorf("Format on tiny device: err = %v, want ErrDeviceTooSmall", err)
	}
}

// TestRangeChecks is the table for both directions. The MaxInt64 rows are
// the ones an adding check (off+len > size) lets through: the sum wraps
// negative and the request goes on to index with it.
func TestRangeChecks(t *testing.T) {
	_, dev := formatVol(t, "pw")
	size := dev.Size()
	for _, tc := range []struct {
		name string
		off  int64
		n    int
		ok   bool
	}{
		{"last byte", size - 1, 1, true},
		{"empty at end", size, 0, true},
		{"one past end", size, 1, false},
		{"straddles end", size - 1, 2, false},
		{"negative offset", -1, 1, false},
		{"empty past end", size + 1, 0, false},
		{"offset MaxInt64-1", math.MaxInt64 - 1, 2, false},
		{"offset MaxInt64", math.MaxInt64, 1, false},
		{"offset MaxInt64, two sectors", math.MaxInt64, 2 * SectorSize, false},
	} {
		for dir, io := range map[string]func([]byte, int64) error{"read": dev.ReadAt, "write": dev.WriteAt} {
			err := io(make([]byte, tc.n), tc.off)
			switch {
			case tc.ok && err != nil:
				t.Errorf("%s %s: %v", dir, tc.name, err)
			case !tc.ok && !errors.Is(err, blockdev.ErrOutOfRange):
				t.Errorf("%s %s: err = %v, want ErrOutOfRange", dir, tc.name, err)
			}
		}
	}
}

func TestOfflineCorruptionGarblesPlaintext(t *testing.T) {
	// dm-crypt provides confidentiality, not integrity: a flipped
	// ciphertext bit decrypts to garbage but does not error. (Integrity is
	// dm-verity's job; this test documents the split.)
	raw, dev := formatVol(t, "pw")
	msg := bytes.Repeat([]byte{0x55}, SectorSize)
	if err := dev.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}
	if err := raw.FlipBit(headerBytes+100, 1); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, SectorSize)
	if err := dev.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt after corruption: %v", err)
	}
	if bytes.Equal(got, msg) {
		t.Error("corrupted ciphertext decrypted to original plaintext")
	}
}

// Property: arbitrary write/read sequences round-trip.
func TestWriteReadProperty(t *testing.T) {
	_, dev := formatVol(t, "prop")
	f := func(data []byte, off uint16) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 2048 {
			data = data[:2048]
		}
		o := int64(off) % (dev.Size() - int64(len(data)))
		if err := dev.WriteAt(data, o); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := dev.ReadAt(got, o); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDefaultIterationsApplied(t *testing.T) {
	raw := blockdev.NewMem(testVolSize)
	if _, err := Format(raw, []byte("pw"), Options{}); err != nil {
		t.Fatalf("Format: %v", err)
	}
	hdr := make([]byte, headerBytes)
	if err := raw.ReadAt(hdr, 0); err != nil {
		t.Fatal(err)
	}
	var h header
	if err := h.unmarshal(hdr); err != nil {
		t.Fatal(err)
	}
	if h.iterations != DefaultPBKDF2Iterations {
		t.Errorf("iterations = %d, want %d", h.iterations, DefaultPBKDF2Iterations)
	}
}

// earlierHeaderHex is the header of the volume
// TestPBKDF2HeaderFromEarlierFormatStillOpens opens.
const earlierHeaderHex = "4b56534c01000000e8030000c3175ac3175ac3175ac3175ac3175ac3175ac3175ac3175ac3175ac3175ac3175ac3175ac3175ac3175ac31750000000e7ae3db4a025e20cf545e8c00fdcb3c653b270977462041b105dfde44a42fa9a536b468ead04411eab4739d0210c471e2ad2588b7a3873e286b487334932f47ca0ffd6143b271872893ac54c06ea76e7fe1cbf8f8c769da6c546edfd25a165721777d1cb2cff771e1e78e28f6e7307b4"

// TestPBKDF2HeaderFromEarlierFormatStillOpens pins the on-disk contract
// across the kdf rewrite: a volume formatted (1000 iterations) and written
// by the commit before PBKDF2 stopped re-keying its HMAC unlocks with the
// same passphrase and decrypts to what was written then.
func TestPBKDF2HeaderFromEarlierFormatStillOpens(t *testing.T) {
	const (
		sectorHex = "be6693f3aea97d2b25e89d1d57ea4bb474dd16db2ef9e68dcfeb42ac99210839"
		plaintext = "written before the kdf rewrite.."
	)
	hdr, err := hex.DecodeString(earlierHeaderHex)
	if err != nil {
		t.Fatal(err)
	}
	ciphertext, err := hex.DecodeString(sectorHex)
	if err != nil {
		t.Fatal(err)
	}
	raw := blockdev.NewMem(headerBytes + 4096)
	if err := raw.WriteAt(hdr, 0); err != nil {
		t.Fatal(err)
	}
	if err := raw.WriteAt(ciphertext, headerBytes+512); err != nil {
		t.Fatal(err)
	}
	dev, err := Open(raw, []byte("sealing key of the parent commit"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got := make([]byte, len(plaintext))
	if err := dev.ReadAt(got, 512); err != nil {
		t.Fatal(err)
	}
	if string(got) != plaintext {
		t.Errorf("decrypted %q, want %q", got, plaintext)
	}
	if _, err := Open(raw, []byte("another key")); !errors.Is(err, ErrBadPassphrase) {
		t.Errorf("wrong passphrase: err = %v, want ErrBadPassphrase", err)
	}
}

// TestInnerIOCounts pins what a request costs the device below: one
// inner write, preceded by one inner read per unaligned edge sector (one
// read when the request lies inside a single sector), and one inner
// read, whatever the request's size. It runs on one CPU: a 1-vCPU guest
// takes the same path as any other.
func TestInnerIOCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	inner := blockdev.NewStats(blockdev.NewMem(headerBytes + 256*1024))
	dev, err := Format(inner, []byte("pw"), Options{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	for _, tc := range []struct {
		name          string
		io            func(p []byte, off int64) error
		off           int64
		n             int
		reads, writes int64
	}{
		{"aligned write", dev.WriteAt, 64 * 1024, 64 * 1024, 0, 1},
		{"unaligned write", dev.WriteAt, 64*1024 + 100, 64 * 1024, 2, 1},
		{"aligned read", dev.ReadAt, 64 * 1024, 64 * 1024, 1, 0},
		{"unaligned read", dev.ReadAt, 64*1024 + 100, 64 * 1024, 1, 0},
		// The agent's credential blob: one whole sector and a tail.
		{"551-byte write", dev.WriteAt, 0, 551, 1, 1},
		{"3 aligned sectors write", dev.WriteAt, 1024, 3 * SectorSize, 0, 1},
		// Both edges fall in one sector, which is read once.
		{"sub-sector write", dev.WriteAt, 700, 100, 1, 1},
	} {
		r0, _, w0, _ := inner.Counters()
		if err := tc.io(buf[:tc.n], tc.off); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r1, _, w1, _ := inner.Counters()
		if r1-r0 != tc.reads || w1-w0 != tc.writes {
			t.Errorf("%s: %d inner reads + %d inner writes, want %d + %d",
				tc.name, r1-r0, w1-w0, tc.reads, tc.writes)
		}
	}
}

func BenchmarkCryptWrite4K(b *testing.B) {
	raw := blockdev.NewMem(headerBytes + 1<<20)
	dev, err := Format(raw, []byte("bench"), Options{Iterations: 10})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dev.WriteAt(buf, int64(i%(1<<20/4096))*4096); err != nil {
			b.Fatal(err)
		}
	}
}
