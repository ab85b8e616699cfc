package sev

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

// FuzzReportUnmarshal drives the report parser with the bytes a peer
// controls: an RA-TLS certificate extension, a well-known bundle, a key
// request. Either outcome is fine — ErrBadReport, or a report that
// re-marshals to exactly the input, so that nothing the parser accepted
// went unread — but never a panic and never an unclassified failure.
func FuzzReportUnmarshal(f *testing.F) {
	raw, _, _ := goldenReport(f)
	f.Add(raw)
	f.Add(raw[:SignedSize+2])
	f.Add(raw[:SignedSize])
	f.Add(raw[:7])
	f.Add(append(bytes.Clone(raw), 0xff))
	f.Add(make([]byte, len(raw)))
	for _, n := range []uint16{0, 1, maxSigLen, maxSigLen + 1, 0xffff} {
		lied := bytes.Clone(raw)
		binary.LittleEndian.PutUint16(lied[SignedSize:], n)
		f.Add(lied)
	}
	longest := append(bytes.Clone(raw[:SignedSize]), byte(maxSigLen), 0)
	f.Add(append(longest, make([]byte, maxSigLen)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var r Report
		if err := r.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, ErrBadReport) {
				t.Fatalf("unclassified failure: %v", err)
			}
			return
		}
		enc, err := r.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted report does not marshal: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted report is not a fixed point:\n in  %x\n out %x", data, enc)
		}
	})
}

// TestUnmarshalNeverPanics feeds arbitrary bytes into the report parser:
// attacker-controlled input must produce errors, never panics.
func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		var r Report
		_ = r.UnmarshalBinary(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestUnmarshalMutatedValid mutates every byte of a valid encoding; each
// mutation must either parse to different content or fail — never panic,
// and never parse back to the identical report.
func TestUnmarshalMutatedValid(t *testing.T) {
	r, _ := signedTestReport(t)
	enc, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		mutated := append([]byte(nil), enc...)
		mutated[i] ^= 0xFF
		var back Report
		if err := back.UnmarshalBinary(mutated); err != nil {
			continue
		}
		// Parsed: must differ somewhere from the original.
		orig, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		reEnc, err := back.MarshalBinary()
		if err != nil {
			continue
		}
		if string(orig) == string(reEnc) {
			t.Fatalf("mutation at byte %d round-tripped to the original", i)
		}
	}
}
