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

// Options configures Format.
type Options struct {
	// Iterations is the PBKDF2 iteration count; 0 selects
	// DefaultPBKDF2Iterations.
	Iterations int
	// Rand supplies entropy for the master key and salts; nil selects
	// crypto/rand. Tests inject a deterministic reader.
	Rand io.Reader
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
	return open(dev, masterKey)
}

// Open unlocks a previously formatted device with the passphrase.
func Open(dev blockdev.Device, passphrase []byte) (*Device, error) {
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
	return open(dev, masterKey)
}

func open(dev blockdev.Device, masterKey []byte) (*Device, error) {
	c, err := xts.NewCipher(masterKey)
	if err != nil {
		return nil, fmt.Errorf("dmcrypt: master key: %w", err)
	}
	return &Device{
		inner:   dev,
		cipher:  c,
		dataLen: dev.Size() - headerBytes,
	}, nil
}

// Device is an opened dm-crypt target: a plaintext view of the encrypted
// data area. It implements blockdev.Device. Concurrent reads are safe;
// writes to disjoint sectors are safe (sector updates are read-modify-
// write within a single sector only). A request runs on its caller's
// goroutine as one inner read or write of the aligned span it covers,
// plus, for a write, one inner read per unaligned edge sector.
type Device struct {
	inner   blockdev.Device
	cipher  *xts.Cipher
	dataLen int64
}

var _ blockdev.Device = (*Device)(nil)

// Size implements blockdev.Device: the plaintext data-area size.
func (d *Device) Size() int64 { return d.dataLen }

// spanPool recycles the sector-aligned scratch of unaligned reads and of
// writes. A buffer only ever grows (the GC empties idle pools, so one
// large request does not pin its buffer).
var spanPool = sync.Pool{New: func() any { return new([]byte) }}

// grow returns *bp resized to n bytes; the contents are stale.
func grow(bp *[]byte, n int64) []byte {
	if int64(cap(*bp)) < n {
		*bp = make([]byte, n)
	}
	return (*bp)[:n]
}

// ReadAt implements blockdev.Device: the whole aligned span of the
// request is fetched in one inner read and decrypted with one span call.
func (d *Device) ReadAt(p []byte, off int64) error {
	if err := blockdev.CheckRange(d.dataLen, off, len(p)); err != nil {
		return err
	}
	if len(p) == 0 {
		return nil
	}
	first := off / SectorSize
	last := (off + int64(len(p)) - 1) / SectorSize

	// Sector-aligned requests decrypt in place in p; unaligned ones go
	// through a pooled span covering the aligned extent.
	if off%SectorSize == 0 && int64(len(p))%SectorSize == 0 {
		return d.readSpan(p, first)
	}
	bp := spanPool.Get().(*[]byte)
	defer spanPool.Put(bp)
	span := grow(bp, (last-first+1)*SectorSize)
	if err := d.readSpan(span, first); err != nil {
		return err
	}
	copy(p, span[off-first*SectorSize:])
	return nil
}

// readSpan fills span, whole sectors from sector first on, with their
// plaintext.
func (d *Device) readSpan(span []byte, first int64) error {
	if err := d.inner.ReadAt(span, headerBytes+first*SectorSize); err != nil {
		return err
	}
	return d.cipher.DecryptSectors(span, span, uint64(first), SectorSize)
}

// WriteAt implements blockdev.Device: the edge sectors a request covers
// only in part (at most two, and one when it lies inside a single
// sector) are read and decrypted into a pooled span, p is copied over
// them, the span is encrypted, and one inner write lands the whole
// request.
func (d *Device) WriteAt(p []byte, off int64) error {
	if err := blockdev.CheckRange(d.dataLen, off, len(p)); err != nil {
		return err
	}
	if len(p) == 0 {
		return nil
	}
	first := off / SectorSize
	end := off + int64(len(p))
	last := (end - 1) / SectorSize
	nSectors := last - first + 1

	bp := spanPool.Get().(*[]byte)
	defer spanPool.Put(bp)
	span := grow(bp, nSectors*SectorSize)
	// Read-modify-write for the unaligned edges. Together with p they
	// define every byte of the (stale) pooled span.
	head := off%SectorSize != 0
	if head {
		if err := d.readSpan(span[:SectorSize], first); err != nil {
			return err
		}
	}
	if end%SectorSize != 0 && (last > first || !head) {
		if err := d.readSpan(span[(nSectors-1)*SectorSize:], last); err != nil {
			return err
		}
	}
	copy(span[off-first*SectorSize:], p)
	if err := d.cipher.EncryptSectors(span, span, uint64(first), SectorSize); err != nil {
		return err
	}
	return d.inner.WriteAt(span, headerBytes+first*SectorSize)
}
