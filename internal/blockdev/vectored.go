package blockdev

import "fmt"

// Vectored is the batched I/O extension of Device: one call moves many
// (possibly discontiguous) sector-sized buffers, the software analogue of
// the kernel's blk-mq request batching. Devices that can serve a whole
// batch under a single lock acquisition implement it natively; everything
// else is reached through the ReadSectors/WriteSectors helpers, which
// fall back to a per-buffer loop. The dm-crypt and dm-verity engines
// issue all their inner I/O through these helpers instead of per-sector
// round-trips.
type Vectored interface {
	// ReadSectors fills each bufs[i] from byte offset offs[i],
	// all-or-nothing: any failing segment fails the whole batch.
	ReadSectors(bufs [][]byte, offs []int64) error
	// WriteSectors stores each bufs[i] at byte offset offs[i],
	// all-or-nothing.
	WriteSectors(bufs [][]byte, offs []int64) error
}

// ReadSectors performs a vectored read on dev, using the native
// implementation when present and a sequential ReadAt loop otherwise.
func ReadSectors(dev Device, bufs [][]byte, offs []int64) error {
	if err := checkVector(bufs, offs); err != nil {
		return err
	}
	if v, ok := dev.(Vectored); ok {
		return v.ReadSectors(bufs, offs)
	}
	for i, buf := range bufs {
		if err := dev.ReadAt(buf, offs[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteSectors performs a vectored write on dev, using the native
// implementation when present and a sequential WriteAt loop otherwise.
func WriteSectors(dev Device, bufs [][]byte, offs []int64) error {
	if err := checkVector(bufs, offs); err != nil {
		return err
	}
	if v, ok := dev.(Vectored); ok {
		return v.WriteSectors(bufs, offs)
	}
	for i, buf := range bufs {
		if err := dev.WriteAt(buf, offs[i]); err != nil {
			return err
		}
	}
	return nil
}

func checkVector(bufs [][]byte, offs []int64) error {
	if len(bufs) != len(offs) {
		return fmt.Errorf("blockdev: vectored batch has %d buffers but %d offsets", len(bufs), len(offs))
	}
	return nil
}

var (
	_ Vectored = (*Mem)(nil)
	_ Vectored = (*ReadOnly)(nil)
	_ Vectored = (*Linear)(nil)
	_ Vectored = (*Stats)(nil)
	_ Vectored = (*File)(nil)
)

// ReadSectors implements Vectored under a single lock acquisition.
func (m *Mem) ReadSectors(bufs [][]byte, offs []int64) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i, buf := range bufs {
		if err := checkRange(m.size, offs[i], len(buf)); err != nil {
			return err
		}
		m.read(buf, offs[i])
	}
	return nil
}

// WriteSectors implements Vectored under a single lock acquisition. The
// batch is validated in full before the first byte lands, preserving
// all-or-nothing semantics.
func (m *Mem) WriteSectors(bufs [][]byte, offs []int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, buf := range bufs {
		if err := checkRange(m.size, offs[i], len(buf)); err != nil {
			return err
		}
	}
	for i, buf := range bufs {
		m.write(buf, offs[i])
	}
	return nil
}

// ReadSectors implements Vectored.
func (r *ReadOnly) ReadSectors(bufs [][]byte, offs []int64) error {
	return ReadSectors(r.inner, bufs, offs)
}

// WriteSectors implements Vectored by always failing.
func (r *ReadOnly) WriteSectors([][]byte, []int64) error { return ErrReadOnly }

// remap translates a batch of extent-relative offsets to inner-device
// offsets, bounds-checking each against the extent.
func (l *Linear) remap(bufs [][]byte, offs []int64) ([]int64, error) {
	inner := make([]int64, len(offs))
	for i, off := range offs {
		if err := checkRange(l.length, off, len(bufs[i])); err != nil {
			return nil, err
		}
		inner[i] = l.start + off
	}
	return inner, nil
}

// ReadSectors implements Vectored.
func (l *Linear) ReadSectors(bufs [][]byte, offs []int64) error {
	inner, err := l.remap(bufs, offs)
	if err != nil {
		return err
	}
	return ReadSectors(l.inner, bufs, inner)
}

// WriteSectors implements Vectored.
func (l *Linear) WriteSectors(bufs [][]byte, offs []int64) error {
	inner, err := l.remap(bufs, offs)
	if err != nil {
		return err
	}
	return WriteSectors(l.inner, bufs, inner)
}

// ReadSectors implements Vectored, counting the batch as one op per
// buffer (each buffer is one logical request, as in blk-mq accounting).
func (s *Stats) ReadSectors(bufs [][]byte, offs []int64) error {
	if err := ReadSectors(s.inner, bufs, offs); err != nil {
		return err
	}
	var bytes int64
	for _, buf := range bufs {
		bytes += int64(len(buf))
	}
	s.readOps.Add(int64(len(bufs)))
	s.readBytes.Add(bytes)
	return nil
}

// WriteSectors implements Vectored.
func (s *Stats) WriteSectors(bufs [][]byte, offs []int64) error {
	if err := WriteSectors(s.inner, bufs, offs); err != nil {
		return err
	}
	var bytes int64
	for _, buf := range bufs {
		bytes += int64(len(buf))
	}
	s.writtenOps.Add(int64(len(bufs)))
	s.writtenBytes.Add(bytes)
	return nil
}

// ReadSectors implements Vectored under a single lock acquisition.
func (d *File) ReadSectors(bufs [][]byte, offs []int64) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i, buf := range bufs {
		if err := checkRange(d.size, offs[i], len(buf)); err != nil {
			return err
		}
		if len(buf) == 0 {
			continue
		}
		if _, err := d.f.ReadAt(buf, offs[i]); err != nil {
			return fmt.Errorf("blockdev: file read: %w", err)
		}
	}
	return nil
}

// WriteSectors implements Vectored under a single lock acquisition, with
// the whole batch validated before the first write reaches the file.
func (d *File) WriteSectors(bufs [][]byte, offs []int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, buf := range bufs {
		if err := checkRange(d.size, offs[i], len(buf)); err != nil {
			return err
		}
	}
	for i, buf := range bufs {
		if len(buf) == 0 {
			continue
		}
		if _, err := d.f.WriteAt(buf, offs[i]); err != nil {
			return fmt.Errorf("blockdev: file write: %w", err)
		}
	}
	return nil
}
