// Package firmware models the guest's virtual firmware (OVMF) with the
// measured-direct-boot patches the paper builds on (§2.1.2, Fig 1).
//
// The firmware binary reserves space for a hash table covering the kernel,
// the initrd and the kernel command line. The (untrusted) hypervisor fills
// that table before launch; because the table lives inside the firmware
// volume, it is included in the AMD-SP's launch measurement. At boot the
// firmware re-hashes each blob it receives over fw_cfg and refuses to boot
// on any mismatch. The combination makes the injected hashes verifiable by
// any remote attester: a hypervisor can lie, but not undetectably.
package firmware

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
)

// HashSize is the digest size used in the hash table.
const HashSize = sha256.Size

// DefaultVersion is the OVMF build deployments and fleets boot unless
// configured otherwise. It is spelled here once so a default Service and
// a default Fleet always share one golden measurement.
const DefaultVersion = "2023.05"

var (
	// ErrHashMismatch is the boot failure raised when a delivered blob
	// does not match the measured hash table.
	ErrHashMismatch = errors.New("firmware: boot blob does not match measured hash table")
	// ErrNoHashTable reports a genuine firmware launched without a table.
	ErrNoHashTable = errors.New("firmware: hash table not populated")
)

// HashTable is the table QEMU injects into the firmware volume: one
// SHA-256 digest per direct-boot component.
type HashTable struct {
	Kernel  [HashSize]byte
	Initrd  [HashSize]byte
	Cmdline [HashSize]byte
	filled  bool
}

// NewHashTable computes the table for a concrete set of boot blobs.
func NewHashTable(kernel, initrd []byte, cmdline string) HashTable {
	return HashTable{
		Kernel:  sha256.Sum256(kernel),
		Initrd:  sha256.Sum256(initrd),
		Cmdline: sha256.Sum256([]byte(cmdline)),
		filled:  true,
	}
}

// Filled reports whether the table has been populated.
func (t HashTable) Filled() bool { return t.filled }

// Bytes serializes the table region of the firmware volume.
func (t HashTable) Bytes() []byte {
	out := make([]byte, 0, 3*HashSize+1)
	if t.filled {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = append(out, t.Kernel[:]...)
	out = append(out, t.Initrd[:]...)
	out = append(out, t.Cmdline[:]...)
	return out
}

// Firmware is a firmware build. Two builds differ in their measured bytes
// if and only if their code or behaviour differs — a malicious build that
// skips verification necessarily measures differently, which is the
// §6.1.1 defence.
type Firmware struct {
	code     []byte
	verifies bool
}

// NewOVMF returns a genuine measured-direct-boot firmware build. The
// version string is folded into the code bytes, so firmware upgrades
// change the measurement.
func NewOVMF(version string) *Firmware {
	return &Firmware{
		code:     []byte("OVMF-MDB/verify=on/" + version),
		verifies: true,
	}
}

// NewMaliciousOVMF returns a firmware build that skips hash verification.
// Its code bytes necessarily differ from every genuine build, so the
// launch measurement exposes it.
func NewMaliciousOVMF(version string) *Firmware {
	return &Firmware{
		code:     []byte("OVMF-MDB/verify=off/" + version),
		verifies: false,
	}
}

// MeasuredBytes returns the full firmware volume as measured by the
// AMD-SP: the code region followed by the hash-table region (Fig 1 (ii)).
func (f *Firmware) MeasuredBytes(table HashTable) []byte {
	out := make([]byte, 0, len(f.code)+3*HashSize+1)
	out = append(out, f.code...)
	out = append(out, table.Bytes()...)
	return out
}

// VerifyBoot is the firmware's boot-time check: hash every blob received
// over fw_cfg and compare against the measured table. A genuine build
// fails the boot on mismatch; a malicious build skips the check (and is
// caught by its measurement instead).
func (f *Firmware) VerifyBoot(table HashTable, kernel, initrd []byte, cmdline string) error {
	if !f.verifies {
		return nil
	}
	if !table.Filled() {
		return ErrNoHashTable
	}
	got := NewHashTable(kernel, initrd, cmdline)
	switch {
	case !bytes.Equal(got.Kernel[:], table.Kernel[:]):
		return fmt.Errorf("%w: kernel", ErrHashMismatch)
	case !bytes.Equal(got.Initrd[:], table.Initrd[:]):
		return fmt.Errorf("%w: initrd", ErrHashMismatch)
	case !bytes.Equal(got.Cmdline[:], table.Cmdline[:]):
		return fmt.Errorf("%w: cmdline", ErrHashMismatch)
	}
	return nil
}
