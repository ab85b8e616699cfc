// Package blockdev provides the block-device substrate underneath Revelio's
// device-mapper targets (internal/dmverity, internal/dmcrypt).
//
// It models what the Linux block layer offers those targets: fixed-size
// random-access devices addressed by byte offset, plus stacking wrappers
// (read-only views, linear remaps, I/O accounting) used by the guest VM and
// by the benchmark harness.
package blockdev

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// SectorSize is the traditional 512-byte sector all devices in this
// repository use for addressing; targets may use larger logical blocks.
const SectorSize = 512

var (
	// ErrOutOfRange reports an access beyond the end of the device.
	ErrOutOfRange = errors.New("blockdev: access out of range")
	// ErrReadOnly reports a write to a read-only device.
	ErrReadOnly = errors.New("blockdev: device is read-only")
)

// Device is the minimal block-device contract: byte-addressed random
// access over a fixed extent. Implementations must be safe for concurrent
// readers; concurrent writers to overlapping ranges are the caller's
// responsibility, as with a real block device.
type Device interface {
	// ReadAt fills p from the device starting at byte offset off. Unlike
	// io.ReaderAt it is all-or-nothing: short reads are errors.
	ReadAt(p []byte, off int64) error
	// WriteAt stores p at byte offset off, all-or-nothing.
	WriteAt(p []byte, off int64) error
	// Size returns the device length in bytes.
	Size() int64
}

// checkRange validates an access window against a device size.
func checkRange(size, off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > size {
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfRange, off, n, size)
	}
	return nil
}

// Mem is an in-memory block device.
type Mem struct {
	mu   sync.RWMutex
	data []byte
}

var _ Device = (*Mem)(nil)

// NewMem creates a zero-filled in-memory device of the given size.
func NewMem(size int64) *Mem {
	return &Mem{data: make([]byte, size)}
}

// NewMemFrom creates an in-memory device holding a copy of data.
func NewMemFrom(data []byte) *Mem {
	d := make([]byte, len(data))
	copy(d, data)
	return &Mem{data: d}
}

// ReadAt implements Device.
func (m *Mem) ReadAt(p []byte, off int64) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := checkRange(int64(len(m.data)), off, len(p)); err != nil {
		return err
	}
	copy(p, m.data[off:])
	return nil
}

// WriteAt implements Device.
func (m *Mem) WriteAt(p []byte, off int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := checkRange(int64(len(m.data)), off, len(p)); err != nil {
		return err
	}
	copy(m.data[off:], p)
	return nil
}

// Size implements Device.
func (m *Mem) Size() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return int64(len(m.data))
}

// Snapshot returns a copy of the device contents, for image serialization.
func (m *Mem) Snapshot() []byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]byte, len(m.data))
	copy(out, m.data)
	return out
}

// Clone returns an independent in-memory device with the same contents,
// at the cost of one copy (NewMemFrom(m.Snapshot()) makes two).
func (m *Mem) Clone() *Mem { return &Mem{data: m.Snapshot()} }

// FlipBit flips a single bit, modelling the offline single-bit corruption
// the paper's §6.1.3 argues dm-verity must catch.
func (m *Mem) FlipBit(byteOff int64, bit uint) error {
	if bit > 7 {
		return fmt.Errorf("blockdev: bit index %d out of range", bit)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := checkRange(int64(len(m.data)), byteOff, 1); err != nil {
		return err
	}
	m.data[byteOff] ^= 1 << bit
	return nil
}

// ReadOnly wraps a device and rejects writes, modelling the read-only
// mapping Revelio enforces for the rootfs.
type ReadOnly struct {
	inner Device
}

var _ Device = (*ReadOnly)(nil)

// NewReadOnly returns a read-only view of dev.
func NewReadOnly(dev Device) *ReadOnly { return &ReadOnly{inner: dev} }

// ReadAt implements Device.
func (r *ReadOnly) ReadAt(p []byte, off int64) error { return r.inner.ReadAt(p, off) }

// WriteAt implements Device by always failing.
func (r *ReadOnly) WriteAt([]byte, int64) error { return ErrReadOnly }

// Size implements Device.
func (r *ReadOnly) Size() int64 { return r.inner.Size() }

// Linear exposes a sub-extent of an underlying device, the device-mapper
// "linear" target. Partitions in internal/imagebuild are Linear views.
type Linear struct {
	inner  Device
	start  int64
	length int64
}

var _ Device = (*Linear)(nil)

// NewLinear maps [start, start+length) of dev as a standalone device.
func NewLinear(dev Device, start, length int64) (*Linear, error) {
	if err := checkRange(dev.Size(), start, 0); err != nil {
		return nil, err
	}
	if length < 0 || start+length > dev.Size() {
		return nil, fmt.Errorf("%w: linear extent [%d,%d) on size %d",
			ErrOutOfRange, start, start+length, dev.Size())
	}
	return &Linear{inner: dev, start: start, length: length}, nil
}

// ReadAt implements Device.
func (l *Linear) ReadAt(p []byte, off int64) error {
	if err := checkRange(l.length, off, len(p)); err != nil {
		return err
	}
	return l.inner.ReadAt(p, l.start+off)
}

// WriteAt implements Device.
func (l *Linear) WriteAt(p []byte, off int64) error {
	if err := checkRange(l.length, off, len(p)); err != nil {
		return err
	}
	return l.inner.WriteAt(p, l.start+off)
}

// Size implements Device.
func (l *Linear) Size() int64 { return l.length }

// Stats counts I/O through a device, used by the benchmark harness to
// attribute overheads.
type Stats struct {
	inner        Device
	readOps      atomic.Int64
	writtenOps   atomic.Int64
	readBytes    atomic.Int64
	writtenBytes atomic.Int64
}

var _ Device = (*Stats)(nil)

// NewStats wraps dev with I/O accounting.
func NewStats(dev Device) *Stats { return &Stats{inner: dev} }

// ReadAt implements Device.
func (s *Stats) ReadAt(p []byte, off int64) error {
	if err := s.inner.ReadAt(p, off); err != nil {
		return err
	}
	s.readOps.Add(1)
	s.readBytes.Add(int64(len(p)))
	return nil
}

// WriteAt implements Device.
func (s *Stats) WriteAt(p []byte, off int64) error {
	if err := s.inner.WriteAt(p, off); err != nil {
		return err
	}
	s.writtenOps.Add(1)
	s.writtenBytes.Add(int64(len(p)))
	return nil
}

// Size implements Device.
func (s *Stats) Size() int64 { return s.inner.Size() }

// Counters returns (readOps, readBytes, writeOps, writeBytes).
func (s *Stats) Counters() (readOps, readBytes, writeOps, writeBytes int64) {
	return s.readOps.Load(), s.readBytes.Load(), s.writtenOps.Load(), s.writtenBytes.Load()
}
