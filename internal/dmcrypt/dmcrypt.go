// Package dmcrypt reimplements the Linux dm-crypt target with a LUKS-like
// on-disk header: transparent per-sector AES-XTS-plain64 encryption of a
// block device.
//
// Revelio encrypts the guest's persistent-state volume with a key sealed
// to the VM's measurement (internal/amdsp.DeriveSealingKey): only a VM
// booted into the identical measured state can unlock the volume, which is
// the paper's F6 requirement. The header layout mirrors LUKS in spirit —
// a master volume key wrapped under a PBKDF2-derived key-encryption key —
// so passphrase rotation never re-encrypts the data area.
package dmcrypt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"revelio/internal/blockdev"
	"revelio/internal/kdf"
	"revelio/internal/parallel"
	"revelio/internal/xts"
)

const (
	// SectorSize is the encryption granularity (plain64 convention).
	SectorSize = 512

	// HeaderSectors is the number of sectors reserved at the start of the
	// device for the header; the data area begins after it.
	HeaderSectors = 8
	headerBytes   = HeaderSectors * SectorSize

	// MasterKeySize is two AES-256 keys for XTS.
	MasterKeySize = 64

	// DefaultPBKDF2Iterations matches the paper's cryptsetup
	// configuration ("pbkdf2 with 1000 iterations").
	DefaultPBKDF2Iterations = 1000

	luksMagic   = 0x4c53564b // "KVSL"
	luksVersion = 1
)

var (
	// ErrBadPassphrase reports a passphrase (or sealing key) that fails to
	// unwrap the master key.
	ErrBadPassphrase = errors.New("dmcrypt: passphrase does not unlock the volume")
	// ErrBadHeader reports a missing or corrupt LUKS-like header.
	ErrBadHeader = errors.New("dmcrypt: bad header")
	// ErrDeviceTooSmall reports a device that cannot hold the header.
	ErrDeviceTooSmall = errors.New("dmcrypt: device too small for header")
)

// Tuning configures the opened device's parallel sector engine. It never
// influences bytes on disk — only how many workers produce them — so any
// two tunings of the same volume are byte-for-byte interchangeable.
type Tuning struct {
	// Concurrency is the number of workers that encrypt or decrypt the
	// sectors of a single request; 0 selects GOMAXPROCS, 1 forces the
	// serial path.
	Concurrency int
}

// Options configures Format.
type Options struct {
	// Iterations is the PBKDF2 iteration count; 0 selects
	// DefaultPBKDF2Iterations.
	Iterations int
	// Rand supplies entropy for the master key and salts; nil selects
	// crypto/rand. Tests inject a deterministic reader.
	Rand io.Reader
	// Tuning configures the returned device's parallel engine.
	Tuning Tuning
}

type header struct {
	iterations uint32
	salt       [32]byte
	nonce      [12]byte
	wrappedKey []byte // AES-256-GCM(KEK, masterKey); includes GCM tag
	keyDigest  [32]byte
}

func (h *header) marshal() []byte {
	buf := make([]byte, 0, headerBytes)
	b := bytes.NewBuffer(buf)
	_ = binary.Write(b, binary.LittleEndian, uint32(luksMagic))
	_ = binary.Write(b, binary.LittleEndian, uint32(luksVersion))
	_ = binary.Write(b, binary.LittleEndian, h.iterations)
	b.Write(h.salt[:])
	b.Write(h.nonce[:])
	_ = binary.Write(b, binary.LittleEndian, uint32(len(h.wrappedKey)))
	b.Write(h.wrappedKey)
	b.Write(h.keyDigest[:])
	out := make([]byte, headerBytes)
	copy(out, b.Bytes())
	return out
}

func (h *header) unmarshal(data []byte) error {
	r := bytes.NewReader(data)
	var magic, version uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil || magic != luksMagic {
		return fmt.Errorf("%w: magic", ErrBadHeader)
	}
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil || version != luksVersion {
		return fmt.Errorf("%w: version", ErrBadHeader)
	}
	if err := binary.Read(r, binary.LittleEndian, &h.iterations); err != nil || h.iterations == 0 {
		return fmt.Errorf("%w: iterations", ErrBadHeader)
	}
	if _, err := io.ReadFull(r, h.salt[:]); err != nil {
		return fmt.Errorf("%w: salt", ErrBadHeader)
	}
	if _, err := io.ReadFull(r, h.nonce[:]); err != nil {
		return fmt.Errorf("%w: nonce", ErrBadHeader)
	}
	var wrappedLen uint32
	if err := binary.Read(r, binary.LittleEndian, &wrappedLen); err != nil || wrappedLen > 256 {
		return fmt.Errorf("%w: wrapped key length", ErrBadHeader)
	}
	h.wrappedKey = make([]byte, wrappedLen)
	if _, err := io.ReadFull(r, h.wrappedKey); err != nil {
		return fmt.Errorf("%w: wrapped key", ErrBadHeader)
	}
	if _, err := io.ReadFull(r, h.keyDigest[:]); err != nil {
		return fmt.Errorf("%w: key digest", ErrBadHeader)
	}
	return nil
}

// kek derives the key-encryption key from a passphrase.
func kek(passphrase []byte, salt []byte, iterations int) ([]byte, error) {
	return kdf.PBKDF2(sha256.New, passphrase, salt, iterations, 32)
}

func digestKey(masterKey, salt []byte) [32]byte {
	mac := hmac.New(sha256.New, salt)
	mac.Write(masterKey)
	var out [32]byte
	mac.Sum(out[:0])
	return out
}

func newGCM(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// Format initializes dev with a fresh master key wrapped under the
// passphrase and returns the opened device. The device length must leave a
// positive, sector-aligned data area after the header.
func Format(dev blockdev.Device, passphrase []byte, opts Options) (*Device, error) {
	if opts.Iterations == 0 {
		opts.Iterations = DefaultPBKDF2Iterations
	}
	if opts.Iterations < 0 {
		return nil, fmt.Errorf("dmcrypt: negative iteration count %d", opts.Iterations)
	}
	if opts.Rand == nil {
		opts.Rand = rand.Reader
	}
	dataLen := dev.Size() - headerBytes
	if dataLen <= 0 || dataLen%SectorSize != 0 {
		return nil, fmt.Errorf("%w: size %d", ErrDeviceTooSmall, dev.Size())
	}

	h := header{iterations: uint32(opts.Iterations)}
	masterKey := make([]byte, MasterKeySize)
	if _, err := io.ReadFull(opts.Rand, masterKey); err != nil {
		return nil, fmt.Errorf("dmcrypt: master key entropy: %w", err)
	}
	if _, err := io.ReadFull(opts.Rand, h.salt[:]); err != nil {
		return nil, fmt.Errorf("dmcrypt: salt entropy: %w", err)
	}
	if _, err := io.ReadFull(opts.Rand, h.nonce[:]); err != nil {
		return nil, fmt.Errorf("dmcrypt: nonce entropy: %w", err)
	}

	key, err := kek(passphrase, h.salt[:], opts.Iterations)
	if err != nil {
		return nil, fmt.Errorf("dmcrypt: derive kek: %w", err)
	}
	aead, err := newGCM(key)
	if err != nil {
		return nil, fmt.Errorf("dmcrypt: kek cipher: %w", err)
	}
	h.wrappedKey = aead.Seal(nil, h.nonce[:], masterKey, nil)
	h.keyDigest = digestKey(masterKey, h.salt[:])

	if err := dev.WriteAt(h.marshal(), 0); err != nil {
		return nil, fmt.Errorf("dmcrypt: write header: %w", err)
	}
	return open(dev, masterKey, opts.Tuning)
}

// Open unlocks a previously formatted device with the passphrase and the
// default tuning (one worker per CPU).
func Open(dev blockdev.Device, passphrase []byte) (*Device, error) {
	return OpenTuned(dev, passphrase, Tuning{})
}

// OpenTuned unlocks a previously formatted device with an explicit
// engine tuning. Tuning{Concurrency: 1} reproduces the historical serial
// engine exactly.
func OpenTuned(dev blockdev.Device, passphrase []byte, tuning Tuning) (*Device, error) {
	if dev.Size() < headerBytes {
		return nil, ErrDeviceTooSmall
	}
	raw := make([]byte, headerBytes)
	if err := dev.ReadAt(raw, 0); err != nil {
		return nil, fmt.Errorf("dmcrypt: read header: %w", err)
	}
	var h header
	if err := h.unmarshal(raw); err != nil {
		return nil, err
	}
	key, err := kek(passphrase, h.salt[:], int(h.iterations))
	if err != nil {
		return nil, fmt.Errorf("dmcrypt: derive kek: %w", err)
	}
	aead, err := newGCM(key)
	if err != nil {
		return nil, fmt.Errorf("dmcrypt: kek cipher: %w", err)
	}
	masterKey, err := aead.Open(nil, h.nonce[:], h.wrappedKey, nil)
	if err != nil {
		return nil, ErrBadPassphrase
	}
	if digestKey(masterKey, h.salt[:]) != h.keyDigest {
		return nil, ErrBadPassphrase
	}
	return open(dev, masterKey, tuning)
}

func open(dev blockdev.Device, masterKey []byte, tuning Tuning) (*Device, error) {
	c, err := xts.NewCipher(masterKey)
	if err != nil {
		return nil, fmt.Errorf("dmcrypt: master key: %w", err)
	}
	return &Device{
		inner:   dev,
		cipher:  c,
		dataLen: dev.Size() - headerBytes,
		workers: parallel.Workers(tuning.Concurrency),
	}, nil
}

const (
	// minBatchSectors is the request size below which the engine goes
	// sector by sector: one span read or write of the inner device beats
	// per-sector I/O from 4 KiB up.
	minBatchSectors = 8

	// minParallelSectors is the request size from which the span is
	// sharded over the worker pool, each worker taking at least half of
	// it. With the AES-NI kernel a sector costs ~0.15 µs, so a goroutine
	// hand-off only pays for itself against hundreds of sectors:
	// measured on the 2-vCPU reference box, two workers lose at 128 KiB
	// (47 µs vs 42 µs serial) and win from 256 KiB (58 µs vs 69 µs).
	// DESIGN.md has the full table.
	minParallelSectors = 512
)

// Device is an opened dm-crypt target: a plaintext view of the encrypted
// data area. It implements blockdev.Device. Concurrent reads are safe;
// writes to disjoint sectors are safe (sector updates are read-modify-
// write within a single sector only). Requests spanning many sectors are
// encrypted or decrypted by a sharded worker pool (see Tuning); the
// bytes produced are identical to the serial engine's on every path.
type Device struct {
	inner   blockdev.Device
	cipher  *xts.Cipher
	dataLen int64
	workers int
}

var _ blockdev.Device = (*Device)(nil)

// Size implements blockdev.Device: the plaintext data-area size.
func (d *Device) Size() int64 { return d.dataLen }

// spanBuf is the pooled scratch of one batched request: the sector-aligned
// span, which only ever grows (the GC empties idle pools, so one large
// request does not pin its buffer), and the read-modify-write edge
// vectors, which would otherwise be heap-allocated per call because they
// pass through the blockdev.Vectored interface.
type spanBuf struct {
	b        []byte
	edgeBufs [2][]byte
	edgeOffs [2]int64
}

var spanPool = sync.Pool{New: func() any { return new(spanBuf) }}

// span returns the buffer resized to n bytes; the contents are stale.
func (sb *spanBuf) span(n int64) []byte {
	if int64(cap(sb.b)) < n {
		sb.b = make([]byte, n)
	}
	return sb.b[:n]
}

// cryptSpan encrypts or decrypts a sector-aligned span in place, sharding
// it over the worker pool when every worker gets a shard worth the
// hand-off.
func (d *Device) cryptSpan(span []byte, first int64, encrypt bool) error {
	nSectors := int64(len(span) / SectorSize)
	workers := min(int64(d.workers), nSectors/(minParallelSectors/2))
	if workers < 2 {
		return d.cryptSectors(span, first, encrypt)
	}
	return parallel.Shards(int(workers), nSectors, func(lo, hi int64) error {
		return d.cryptSectors(span[lo*SectorSize:hi*SectorSize], first+lo, encrypt)
	})
}

func (d *Device) cryptSectors(seg []byte, first int64, encrypt bool) error {
	if encrypt {
		return d.cipher.EncryptSectors(seg, seg, uint64(first), SectorSize)
	}
	return d.cipher.DecryptSectors(seg, seg, uint64(first), SectorSize)
}

// ReadAt implements blockdev.Device. Small requests decrypt per sector;
// larger ones fetch the whole aligned span in one batched inner read and
// decrypt it with one span call, sharded across the worker pool when it
// is large enough.
func (d *Device) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > d.dataLen {
		return fmt.Errorf("%w: off=%d len=%d size=%d",
			blockdev.ErrOutOfRange, off, len(p), d.dataLen)
	}
	if len(p) == 0 {
		return nil
	}
	first := off / SectorSize
	last := (off + int64(len(p)) - 1) / SectorSize
	nSectors := last - first + 1
	if d.workers == 1 || nSectors < minBatchSectors {
		return d.readSerial(p, off)
	}

	// Sector-aligned requests decrypt in place in p; unaligned ones go
	// through a pooled span covering the aligned extent.
	if off%SectorSize == 0 && int64(len(p))%SectorSize == 0 {
		return d.readSpan(p, first)
	}
	sb := spanPool.Get().(*spanBuf)
	defer spanPool.Put(sb)
	span := sb.span(nSectors * SectorSize)
	if err := d.readSpan(span, first); err != nil {
		return err
	}
	copy(p, span[off-first*SectorSize:])
	return nil
}

func (d *Device) readSpan(span []byte, first int64) error {
	if err := d.inner.ReadAt(span, headerBytes+first*SectorSize); err != nil {
		return err
	}
	return d.cryptSpan(span, first, false)
}

// sectorPool recycles the per-call sector scratch buffers of the serial
// read/write paths, keeping the steady-state single-sector hot path
// allocation-free (guarded by TestSerialReadZeroAllocs).
var sectorPool = sync.Pool{New: func() any {
	b := make([]byte, SectorSize)
	return &b
}}

func (d *Device) readSerial(p []byte, off int64) error {
	bufp := sectorPool.Get().(*[]byte)
	defer sectorPool.Put(bufp)
	sector := *bufp
	for n := 0; n < len(p); {
		s := (off + int64(n)) / SectorSize
		inner := (off + int64(n)) % SectorSize
		if err := d.readSector(s, sector); err != nil {
			return err
		}
		n += copy(p[n:], sector[inner:])
	}
	return nil
}

// WriteAt implements blockdev.Device, encrypting per sector with
// read-modify-write at unaligned edges. Requests spanning enough sectors
// take the batched path: the two edge sectors (at most) are fetched in a
// single vectored read, the span is encrypted in a pooled buffer, and
// one inner write lands the whole request.
func (d *Device) WriteAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > d.dataLen {
		return fmt.Errorf("%w: off=%d len=%d size=%d",
			blockdev.ErrOutOfRange, off, len(p), d.dataLen)
	}
	if len(p) == 0 {
		return nil
	}
	first := off / SectorSize
	end := off + int64(len(p))
	last := (end - 1) / SectorSize
	nSectors := last - first + 1
	if d.workers == 1 || nSectors < minBatchSectors {
		return d.writeSerial(p, off)
	}

	sb := spanPool.Get().(*spanBuf)
	defer spanPool.Put(sb)
	span := sb.span(nSectors * SectorSize)
	// Read-modify-write for the unaligned edges, batched into one
	// vectored read of at most two discontiguous sectors. Together with
	// p they define every byte of the (stale) pooled span.
	edges := 0
	if off%SectorSize != 0 {
		sb.edgeBufs[edges], sb.edgeOffs[edges] = span[:SectorSize], headerBytes+first*SectorSize
		edges++
	}
	if end%SectorSize != 0 {
		sb.edgeBufs[edges], sb.edgeOffs[edges] = span[(nSectors-1)*SectorSize:], headerBytes+last*SectorSize
		edges++
	}
	if edges > 0 {
		if err := blockdev.ReadSectors(d.inner, sb.edgeBufs[:edges], sb.edgeOffs[:edges]); err != nil {
			return err
		}
		for i, buf := range sb.edgeBufs[:edges] {
			sector := (sb.edgeOffs[i] - headerBytes) / SectorSize
			if err := d.cipher.Decrypt(buf, buf, uint64(sector)); err != nil {
				return err
			}
		}
	}
	copy(span[off-first*SectorSize:], p)
	if err := d.cryptSpan(span, first, true); err != nil {
		return err
	}
	return d.inner.WriteAt(span, headerBytes+first*SectorSize)
}

func (d *Device) writeSerial(p []byte, off int64) error {
	bufp := sectorPool.Get().(*[]byte)
	encp := sectorPool.Get().(*[]byte)
	defer sectorPool.Put(bufp)
	defer sectorPool.Put(encp)
	sector, enc := *bufp, *encp
	for n := 0; n < len(p); {
		s := (off + int64(n)) / SectorSize
		inner := (off + int64(n)) % SectorSize
		count := SectorSize - int(inner)
		if count > len(p)-n {
			count = len(p) - n
		}
		if inner != 0 || count != SectorSize {
			if err := d.readSector(s, sector); err != nil {
				return err
			}
		}
		copy(sector[inner:], p[n:n+count])
		if err := d.writeSector(s, sector, enc); err != nil {
			return err
		}
		n += count
	}
	return nil
}

func (d *Device) readSector(s int64, buf []byte) error {
	if err := d.inner.ReadAt(buf, headerBytes+s*SectorSize); err != nil {
		return err
	}
	return d.cipher.Decrypt(buf, buf, uint64(s))
}

// writeSector encrypts buf into the caller-provided scratch buffer enc
// before writing, so bulk writes stay allocation-free per sector.
func (d *Device) writeSector(s int64, buf, enc []byte) error {
	if err := d.cipher.Encrypt(enc, buf, uint64(s)); err != nil {
		return err
	}
	return d.inner.WriteAt(enc, headerBytes+s*SectorSize)
}
