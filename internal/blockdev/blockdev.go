// Package blockdev provides the block-device substrate underneath Revelio's
// device-mapper targets (internal/dmverity, internal/dmcrypt).
//
// It models what the Linux block layer offers those targets: fixed-size
// random-access devices addressed by byte offset, plus stacking wrappers
// (read-only views, linear remaps, I/O accounting) used by the guest VM and
// by the benchmark harness.
//
// The in-memory device, Mem, clones copy-on-write: a deployment builds one
// disk image and every node's private disk is a Clone of it that shares the
// image's bytes until the node writes them, 64 KiB at a time. What a node
// writes — its sealed volume, a tampered sector in a security test — stays
// the node's own; see Mem.
package blockdev

import (
	"errors"
	"fmt"
	"slices"
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

// CheckRange validates an access window against a device size, for this
// package's devices and the targets stacked on them. It subtracts instead
// of adding, so an offset near the top of int64 cannot wrap its way inside
// the device.
func CheckRange(size, off int64, n int) error {
	if off < 0 || n < 0 || off > size || int64(n) > size-off {
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfRange, off, n, size)
	}
	return nil
}

// cowChunk is the granularity at which cloned Mem devices stop sharing
// bytes: 64 KiB is the largest I/O the storage engines above issue, so a
// write faults at most two chunks.
const cowChunk = 64 << 10

// Mem is an in-memory block device.
//
// A Mem that was never cloned is one flat byte slice. Clone turns the
// device and its clone into copy-on-write relatives: both hold the same
// table of 64 KiB chunks as they are at clone time, and each copies a
// chunk the first time *it* writes into it. A shared chunk is never
// written by anyone — relatives only ever see each other's bytes from
// before the clone — so every Mem stays as private as a full copy would
// be, at the cost of the chunks it actually dirties.
type Mem struct {
	mu   sync.RWMutex
	size int64
	data []byte // the whole device; nil once the device has relatives
	// chunks and owned are the copy-on-write form (nil while flat):
	// chunks[i] holds bytes [i*cowChunk, (i+1)*cowChunk) — the last one
	// may be shorter — and owned[i] says no relative can reach it.
	chunks [][]byte
	owned  []bool
}

var _ Device = (*Mem)(nil)

// NewMem creates a zero-filled in-memory device of the given size.
func NewMem(size int64) *Mem {
	return &Mem{size: size, data: make([]byte, size)}
}

// NewMemFrom creates an in-memory device holding a copy of data.
func NewMemFrom(data []byte) *Mem {
	d := make([]byte, len(data))
	copy(d, data)
	return &Mem{size: int64(len(d)), data: d}
}

// read copies [off, off+len(p)) into p; the caller holds mu and has
// checked the range.
func (m *Mem) read(p []byte, off int64) {
	if m.chunks == nil {
		copy(p, m.data[off:])
		return
	}
	for len(p) > 0 {
		n := copy(p, m.chunks[off/cowChunk][off%cowChunk:])
		p, off = p[n:], off+int64(n)
	}
}

// write stores p at off; the caller holds mu for writing and has checked
// the range. A chunk still shared with a relative is replaced by a
// private one first — copied, unless p overwrites all of it.
func (m *Mem) write(p []byte, off int64) {
	if m.chunks == nil {
		copy(m.data[off:], p)
		return
	}
	for len(p) > 0 {
		i, o := off/cowChunk, off%cowChunk
		chunk := m.chunks[i]
		if !m.owned[i] {
			private := make([]byte, len(chunk))
			if o != 0 || len(p) < len(chunk) {
				copy(private, chunk)
			}
			m.chunks[i], m.owned[i], chunk = private, true, private
		}
		n := copy(chunk[o:], p)
		p, off = p[n:], off+int64(n)
	}
}

// ReadAt implements Device.
func (m *Mem) ReadAt(p []byte, off int64) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := CheckRange(m.size, off, len(p)); err != nil {
		return err
	}
	m.read(p, off)
	return nil
}

// WriteAt implements Device.
func (m *Mem) WriteAt(p []byte, off int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := CheckRange(m.size, off, len(p)); err != nil {
		return err
	}
	m.write(p, off)
	return nil
}

// Size implements Device.
func (m *Mem) Size() int64 { return m.size }

// Snapshot returns a copy of the device contents, for image serialization.
func (m *Mem) Snapshot() []byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]byte, m.size)
	m.read(out, 0)
	return out
}

// Clone returns an independent in-memory device with the same contents
// without copying them: the clone and m share every chunk as it is now,
// and whichever of them writes to a chunk first takes a private copy of
// it (see Mem). Cloning costs one chunk table, not one disk image.
func (m *Mem) Clone() *Mem {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.chunks == nil {
		// First clone: cut the flat array into chunks in place.
		m.chunks = make([][]byte, (m.size+cowChunk-1)/cowChunk)
		for i := range m.chunks {
			lo := int64(i) * cowChunk
			hi := min(lo+cowChunk, m.size)
			m.chunks[i] = m.data[lo:hi:hi]
		}
		m.data = nil
	}
	// Every chunk m holds is now reachable from the clone too.
	m.owned = make([]bool, len(m.chunks))
	return &Mem{
		size:   m.size,
		chunks: slices.Clone(m.chunks),
		owned:  make([]bool, len(m.chunks)),
	}
}

// PrivateBytes returns how many of the device's bytes no relative can
// reach: all of them for a device that was never cloned, none right after
// a Clone (on either side), and from then on one chunk per chunk written.
// It is what a clone has cost in copied or newly allocated memory.
func (m *Mem) PrivateBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.chunks == nil {
		return m.size
	}
	var n int64
	for i, own := range m.owned {
		if own {
			n += int64(len(m.chunks[i]))
		}
	}
	return n
}

// FlipBit flips a single bit, modelling the offline single-bit corruption
// the paper's §6.1.3 argues dm-verity must catch.
func (m *Mem) FlipBit(byteOff int64, bit uint) error {
	if bit > 7 {
		return fmt.Errorf("blockdev: bit index %d out of range", bit)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := CheckRange(m.size, byteOff, 1); err != nil {
		return err
	}
	var b [1]byte
	m.read(b[:], byteOff)
	b[0] ^= 1 << bit
	m.write(b[:], byteOff)
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
	if size := dev.Size(); start < 0 || start > size || length < 0 || length > size-start {
		return nil, fmt.Errorf("%w: linear extent start=%d length=%d on size %d",
			ErrOutOfRange, start, length, size)
	}
	return &Linear{inner: dev, start: start, length: length}, nil
}

// ReadAt implements Device.
func (l *Linear) ReadAt(p []byte, off int64) error {
	if err := CheckRange(l.length, off, len(p)); err != nil {
		return err
	}
	return l.inner.ReadAt(p, l.start+off)
}

// WriteAt implements Device.
func (l *Linear) WriteAt(p []byte, off int64) error {
	if err := CheckRange(l.length, off, len(p)); err != nil {
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
