// Package rootfs implements the simple read-only filesystem image format
// Revelio guests use for their root filesystem.
//
// The format is a deterministic archive: a fixed header, then the files
// sorted by path, each length-prefixed, padded to the dm-verity block
// size. Determinism is the point — internal/imagebuild relies on
// byte-identical archives for reproducible builds (paper requirement F5).
// The archive is consumed through a verity-protected device, so every read
// of file contents is integrity-checked at the block layer. Open reads a
// file through the device without holding it — ReadAt into the caller's
// buffer, WriteTo through one pooled buffer — and ReadFile is Open plus
// one allocation of the whole file.
package rootfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strings"
	"sync"

	"revelio/internal/blockdev"
)

const (
	// BlockSize is the archive padding granularity, matched to the
	// dm-verity block size.
	BlockSize = 4096

	archiveMagic   = 0x53465652 // "RVFS"
	archiveVersion = 1

	maxFiles    = 1 << 20
	maxNameLen  = 4096
	maxFileSize = 1 << 31
)

// ErrBadArchive reports a malformed archive.
var ErrBadArchive = errors.New("rootfs: bad archive")

// File is one file in the image.
type File struct {
	Path    string
	Content []byte
	Mode    uint32
}

// Build serializes files into a deterministic archive padded to a
// multiple of BlockSize. Paths must be non-empty, slash-separated,
// relative, and unique; Build sorts them, so input order never matters.
func Build(files []File) ([]byte, error) {
	sorted := make([]File, len(files))
	copy(sorted, files)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })

	seen := make(map[string]struct{}, len(sorted))
	size := 16 + BlockSize // header, and room for the padding
	for _, f := range sorted {
		size += 4 + len(f.Path) + 4 + 8 + len(f.Content)
	}
	var b bytes.Buffer
	b.Grow(size) // one allocation, not a doubling series of them
	w := func(v any) { _ = binary.Write(&b, binary.LittleEndian, v) }
	w(uint32(archiveMagic))
	w(uint32(archiveVersion))
	w(uint64(len(sorted)))
	for _, f := range sorted {
		if err := validatePath(f.Path); err != nil {
			return nil, err
		}
		if _, dup := seen[f.Path]; dup {
			return nil, fmt.Errorf("rootfs: duplicate path %q", f.Path)
		}
		seen[f.Path] = struct{}{}
		w(uint32(len(f.Path)))
		b.WriteString(f.Path)
		w(f.Mode)
		w(uint64(len(f.Content)))
		b.Write(f.Content)
	}
	// Pad to a block boundary with zeros — deterministically.
	if rem := b.Len() % BlockSize; rem != 0 {
		b.Write(make([]byte, BlockSize-rem))
	}
	return b.Bytes(), nil
}

func validatePath(p string) error {
	if p == "" || len(p) > maxNameLen {
		return fmt.Errorf("rootfs: invalid path %q", p)
	}
	if strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
		return fmt.Errorf("rootfs: path %q must be relative without ..", p)
	}
	return nil
}

// FS is a parsed, read-only view of an archive. Directory structure is
// implicit in the paths. FS reads file contents lazily through the backing
// device, so verity verification happens on access.
type FS struct {
	dev   blockdev.Device
	index map[string]entry
	paths []string
}

type entry struct {
	off  int64 // content offset in the device
	size int64
	mode uint32
}

// Mount parses the archive structure on dev (typically a dmverity.Device).
// The header and index are read — and therefore verified — immediately;
// file contents are verified on read.
func Mount(dev blockdev.Device) (*FS, error) {
	r := &deviceReader{dev: dev}
	if magic, err := r.u32(); err != nil || magic != archiveMagic {
		return nil, fmt.Errorf("%w: magic", ErrBadArchive)
	}
	if version, err := r.u32(); err != nil || version != archiveVersion {
		return nil, fmt.Errorf("%w: version", ErrBadArchive)
	}
	// The count sizes the index, so besides maxFiles it is held to what
	// the device could possibly contain: a 16-byte header must not be
	// able to demand a million-entry map.
	count, err := r.u64()
	if err != nil || count > maxFiles || count > uint64(dev.Size())/minEntryLen {
		return nil, fmt.Errorf("%w: file count", ErrBadArchive)
	}
	fsys := &FS{
		dev:   dev,
		index: make(map[string]entry, count),
		paths: make([]string, 0, count),
	}
	for i := uint64(0); i < count; i++ {
		nameLen, err := r.u32()
		if err != nil || nameLen == 0 || nameLen > maxNameLen {
			return nil, fmt.Errorf("%w: name length", ErrBadArchive)
		}
		name, err := r.next(int(nameLen))
		if err != nil {
			return nil, fmt.Errorf("%w: name", ErrBadArchive)
		}
		p := string(name) // name is only valid until the next field is decoded
		mode, err := r.u32()
		if err != nil {
			return nil, fmt.Errorf("%w: mode", ErrBadArchive)
		}
		size, err := r.u64()
		if err != nil || size > maxFileSize {
			return nil, fmt.Errorf("%w: size", ErrBadArchive)
		}
		if _, dup := fsys.index[p]; dup {
			return nil, fmt.Errorf("%w: duplicate path %q", ErrBadArchive, p)
		}
		fsys.index[p] = entry{off: r.off, size: int64(size), mode: mode}
		fsys.paths = append(fsys.paths, p)
		if err := r.skip(int64(size)); err != nil {
			return nil, fmt.Errorf("%w: content", ErrBadArchive)
		}
	}
	sort.Strings(fsys.paths)
	return fsys, nil
}

// minEntryLen is the shortest index entry: name length, a one-byte name,
// mode and size.
const minEntryLen = 4 + 1 + 4 + 8

var errTruncated = errors.New("rootfs: truncated archive")

// deviceReader decodes the archive's little-endian fields in device
// order through a read-ahead buffer. A refill reads from the current
// offset through the end of the block the wanted field ends in — the
// very blocks a verity device would verify for a read of the field
// alone — so file contents are never touched while mounting.
type deviceReader struct {
	dev   blockdev.Device
	off   int64  // device offset of the next undecoded byte
	buf   []byte // device bytes [off, off+len(buf)), a window of ahead
	ahead [2 * BlockSize]byte
}

// next returns the next n bytes (n <= BlockSize) and advances past them.
// The slice is valid until the following call.
func (r *deviceReader) next(n int) ([]byte, error) {
	if n > len(r.buf) {
		end := (r.off + int64(n) + BlockSize - 1) / BlockSize * BlockSize
		if size := r.dev.Size(); end > size {
			end = size
		}
		if end-r.off < int64(n) {
			return nil, errTruncated
		}
		r.buf = r.ahead[:end-r.off]
		if err := r.dev.ReadAt(r.buf, r.off); err != nil {
			r.buf = nil
			return nil, err
		}
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	r.off += int64(n)
	return out, nil
}

func (r *deviceReader) u32() (uint32, error) {
	b, err := r.next(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *deviceReader) u64() (uint64, error) {
	b, err := r.next(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// skip advances past n bytes of file content without reading them.
func (r *deviceReader) skip(n int64) error {
	if r.off+n > r.dev.Size() {
		return errTruncated
	}
	r.off += n
	r.buf = r.buf[min(n, int64(len(r.buf))):]
	return nil
}

// Open returns the named file for reading through the backing device:
// every byte it hands out has been verified there, as by ReadFile, and
// none is held by the file itself.
func (f *FS) Open(path string) (*Reader, error) {
	e, ok := f.index[path]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
	}
	return &Reader{dev: f.dev, path: path, e: e}, nil
}

// ReadFile returns the contents of the named file, verified through the
// backing device.
func (f *FS) ReadFile(path string) ([]byte, error) {
	r, err := f.Open(path)
	if err != nil {
		return nil, err
	}
	out := make([]byte, r.e.size)
	if err := r.read(out, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// Reader reads one file of an image. It is an io.ReaderAt and an
// io.WriterTo, safe for concurrent use.
type Reader struct {
	dev  blockdev.Device
	path string
	e    entry
}

// ReadAt implements io.ReaderAt over the file's contents.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("rootfs: read %q: negative offset", r.path)
	}
	if off >= r.e.size {
		return 0, io.EOF
	}
	n := int(min(int64(len(p)), r.e.size-off))
	if err := r.read(p[:n], off); err != nil {
		return 0, err
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// streamChunk is what WriteTo reads at once: the largest I/O the block
// layer issues, so that a read of a verity device is at most one batch of
// blocks.
const streamChunk = 64 << 10

var streamBufs = sync.Pool{New: func() any { return new([streamChunk]byte) }}

// WriteTo implements io.WriterTo: it streams the file to w through one
// pooled buffer, a run of whole device blocks at a time, so a caller that
// only needs the contents verified (or passed on) never holds them all.
func (r *Reader) WriteTo(w io.Writer) (int64, error) {
	buf := streamBufs.Get().(*[streamChunk]byte)
	defer streamBufs.Put(buf)
	var done int64
	for done < r.e.size {
		// Chunks end on streamChunk boundaries of the device, so every
		// read but a file's first and last covers whole blocks.
		start := r.e.off + done
		n := min(r.e.size-done, (start/streamChunk+1)*streamChunk-start)
		if err := r.read(buf[:n], done); err != nil {
			return done, err
		}
		m, err := w.Write(buf[:n])
		done += int64(m)
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// read fills p from the file at off, all or nothing.
func (r *Reader) read(p []byte, off int64) error {
	if err := r.dev.ReadAt(p, r.e.off+off); err != nil {
		return fmt.Errorf("rootfs: read %q: %w", r.path, err)
	}
	return nil
}

// Stat returns size and mode for the named file.
func (f *FS) Stat(path string) (size int64, mode uint32, err error) {
	e, ok := f.index[path]
	if !ok {
		return 0, 0, &fs.PathError{Op: "stat", Path: path, Err: fs.ErrNotExist}
	}
	return e.size, e.mode, nil
}

// List returns all file paths in sorted order.
func (f *FS) List() []string {
	out := make([]string, len(f.paths))
	copy(out, f.paths)
	return out
}
