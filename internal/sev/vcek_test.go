package sev

import (
	"bytes"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"testing"
)

// TestVCEKIdentityMissingExtensions: a certificate without both identity
// extensions, such as the ARK or ASK, names no chip.
func TestVCEKIdentityMissingExtensions(t *testing.T) {
	exts := VCEKExtensions(ChipID{1}, 5)
	for name, certExts := range map[string][]pkix.Extension{
		"neither": nil,
		"no tcb":  exts[:1],
		"no chip": exts[1:],
	} {
		if _, _, err := VCEKIdentity(&x509.Certificate{Extensions: certExts}); err == nil {
			t.Errorf("%s: certificate accepted as a VCEK identity", name)
		}
	}
}

// FuzzVCEKIdentity drives the VCEK identity parser with the extension
// values a KDS response controls, each extension present or not. It must
// never panic, and it may accept only a 64-byte chip identity next to an
// 8-byte TCB, handing back exactly those bytes.
func FuzzVCEKIdentity(f *testing.F) {
	genuine := VCEKExtensions(ChipID{0xc1, 0x9e}, 7)
	f.Add(genuine[0].Value, genuine[1].Value, true, true)
	f.Fuzz(func(t *testing.T, chipExt, tcbExt []byte, withChip, withTCB bool) {
		var exts []pkix.Extension
		if withChip {
			exts = append(exts, pkix.Extension{Id: oidChipID, Value: chipExt})
		}
		if withTCB {
			exts = append(exts, pkix.Extension{Id: oidTCB, Value: tcbExt})
		}
		chip, tcb, err := VCEKIdentity(&x509.Certificate{Extensions: exts})
		wellFormed := withChip && withTCB && len(chipExt) == ChipIDSize && len(tcbExt) == 8
		if err != nil {
			if wellFormed {
				t.Fatalf("well-formed identity rejected: %v", err)
			}
			return
		}
		if !wellFormed {
			t.Fatalf("accepted chip extension %v/%d bytes, tcb extension %v/%d bytes",
				withChip, len(chipExt), withTCB, len(tcbExt))
		}
		if !bytes.Equal(chip[:], chipExt) || tcb != binary.BigEndian.Uint64(tcbExt) {
			t.Fatalf("identity %x/%d differs from the extension bytes", chip, tcb)
		}
	})
}
