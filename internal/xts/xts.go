// Package xts implements the XTS-AES tweakable block cipher mode
// (IEEE P1619 / NIST SP 800-38E).
//
// XTS is the standard mode for disk encryption: each 16-byte cipher block
// is whitened with a tweak derived from the sector number and the block's
// position inside the sector, so identical plaintext at different disk
// locations encrypts differently while random access stays O(1). The
// paper's dm-crypt configuration is aes-xts-plain64, which this package
// reproduces (64-bit little-endian sector number as the tweak seed).
//
// The mode logic — tweak chain, sector spans, ciphertext stealing — is
// written once, in this file, over two block engines. On amd64 CPUs with
// AES-NI (CPUID gate, kernel_amd64.go) the engine is the package's own
// assembly kernel: it keeps eight blocks in flight per round, as the
// kernel's dm-crypt does, over key schedules the package expands itself
// in constant time. Everywhere else — other architectures, the purego
// build tag, an amd64 CPU without AES-NI — the engine is crypto/aes, one
// block per call. Both produce the same bytes; the tests run every
// vector and a differential fuzz target over both.
package xts

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// BlockSize is the cipher block size XTS operates on.
const BlockSize = aes.BlockSize

var (
	// ErrKeySize reports a key that is not 32 or 64 bytes
	// (two AES-128 or two AES-256 keys).
	ErrKeySize = errors.New("xts: key must be 32 or 64 bytes (two AES keys)")
	// ErrDataSize reports input shorter than one block; XTS requires at
	// least one full cipher block per unit.
	ErrDataSize = errors.New("xts: data shorter than one block")
)

// Cipher is an XTS-AES cipher for a fixed pair of keys. It is safe for
// concurrent use: all methods are read-only with respect to the struct.
type Cipher struct {
	kernel *kernel // AES-NI engine; nil selects the crypto/aes one below

	dataCipher  cipher.Block // K1: encrypts data blocks
	tweakCipher cipher.Block // K2: encrypts the tweak
}

// NewCipher creates an XTS cipher from key, which must be two concatenated
// AES keys of equal length (32 bytes total for AES-128, 64 for AES-256).
func NewCipher(key []byte) (*Cipher, error) {
	if len(key) != 32 && len(key) != 64 {
		return nil, ErrKeySize
	}
	if k := newKernel(key); k != nil {
		return &Cipher{kernel: k}, nil
	}
	return newGeneric(key)
}

// newGeneric builds the crypto/aes-backed cipher for a length-checked key.
func newGeneric(key []byte) (*Cipher, error) {
	half := len(key) / 2
	dataCipher, err := aes.NewCipher(key[:half])
	if err != nil {
		return nil, fmt.Errorf("xts: data key: %w", err)
	}
	tweakCipher, err := aes.NewCipher(key[half:])
	if err != nil {
		return nil, fmt.Errorf("xts: tweak key: %w", err)
	}
	return &Cipher{dataCipher: dataCipher, tweakCipher: tweakCipher}, nil
}

// Encrypt encrypts plaintext into ciphertext using the given sector number
// as the tweak (plain64 convention). The two slices must have the same
// length, which must be at least one block. Partial final blocks are
// handled with ciphertext stealing per the standard.
func (c *Cipher) Encrypt(ciphertext, plaintext []byte, sector uint64) error {
	return c.process(ciphertext, plaintext, sector, true)
}

// Decrypt reverses Encrypt for the same sector number.
func (c *Cipher) Decrypt(plaintext, ciphertext []byte, sector uint64) error {
	return c.process(plaintext, ciphertext, sector, false)
}

// EncryptSectors encrypts a span of consecutive whole sectors in one
// call: src holds len(src)/sectorSize sectors, the first numbered
// firstSector, each encrypted under its own plain64 tweak exactly as a
// per-sector Encrypt loop would. dst may alias src. dm-crypt encrypts
// every write's whole aligned span in one call.
func (c *Cipher) EncryptSectors(dst, src []byte, firstSector uint64, sectorSize int) error {
	return c.processSectors(dst, src, firstSector, sectorSize, true)
}

// DecryptSectors reverses EncryptSectors for the same span.
func (c *Cipher) DecryptSectors(dst, src []byte, firstSector uint64, sectorSize int) error {
	return c.processSectors(dst, src, firstSector, sectorSize, false)
}

func (c *Cipher) processSectors(dst, src []byte, firstSector uint64, sectorSize int, encrypt bool) error {
	if sectorSize < BlockSize {
		return fmt.Errorf("xts: sector size %d below block size %d", sectorSize, BlockSize)
	}
	if len(dst) != len(src) {
		return fmt.Errorf("xts: dst length %d != src length %d", len(dst), len(src))
	}
	if len(src)%sectorSize != 0 {
		return fmt.Errorf("xts: span length %d not a multiple of sector size %d", len(src), sectorSize)
	}
	c.span(dst, src, firstSector, sectorSize, encrypt)
	return nil
}

func (c *Cipher) process(dst, src []byte, sector uint64, encrypt bool) error {
	if len(dst) != len(src) {
		return fmt.Errorf("xts: dst length %d != src length %d", len(dst), len(src))
	}
	if len(src) < BlockSize {
		return ErrDataSize
	}
	c.span(dst, src, sector, len(src), encrypt)
	return nil
}

// batchBlocks is how many blocks go to the engine per call: one 512-byte
// sector's worth, so dm-crypt pays one call per sector for the data and
// one per 32 sectors for the tweak seeds.
const (
	batchBlocks = 32
	batchBytes  = batchBlocks * BlockSize
)

// zeroTweaks turns the XEX primitive into plain AES for the tweak seeds.
var zeroTweaks [batchBytes]byte

// span processes len(src)/unit consecutive data units of unit bytes each
// (unit >= BlockSize, already validated), the first numbered sector. Both
// batches live on the stack: the kernel's entry points do not let their
// arguments escape, and the crypto/aes engine copies through its own
// bounce block for the same reason.
func (c *Cipher) span(dst, src []byte, sector uint64, unit int, encrypt bool) {
	var seeds, tweaks [batchBytes]byte
	for len(src) > 0 {
		n := min(len(src)/unit, batchBlocks)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(seeds[i*BlockSize:], sector+uint64(i))
			binary.LittleEndian.PutUint64(seeds[i*BlockSize+8:], 0)
		}
		c.seed(seeds[:], n)
		for i := 0; i < n; i++ {
			lo := binary.LittleEndian.Uint64(seeds[i*BlockSize:])
			hi := binary.LittleEndian.Uint64(seeds[i*BlockSize+8:])
			c.unit(dst[:unit], src[:unit], lo, hi, &tweaks, encrypt)
			dst, src = dst[unit:], src[unit:]
		}
		sector += uint64(n)
	}
}

// unit processes one data unit whose encrypted tweak seed is (lo, hi),
// the two little-endian words of the 16-byte block.
func (c *Cipher) unit(dst, src []byte, lo, hi uint64, tweaks *[batchBytes]byte, encrypt bool) {
	bulk, rem := len(src)/BlockSize, len(src)%BlockSize
	if rem != 0 {
		bulk-- // the last full block takes part in the stealing below
	}
	for bulk > 0 {
		n := min(bulk, batchBlocks)
		lo, hi = fillTweaks(tweaks, lo, hi, n)
		c.xex(dst, src, tweaks[:], n, encrypt)
		dst, src = dst[n*BlockSize:], src[n*BlockSize:]
		bulk -= n
	}
	if rem == 0 {
		return
	}

	// Ciphertext stealing over the last full block and the rem-byte tail.
	// Encryption uses tweak m-1 then m; decryption undoes them in the
	// opposite order.
	first, second := tweaks[:BlockSize], tweaks[BlockSize:2*BlockSize]
	if !encrypt {
		first, second = second, first
	}
	fillTweaks(tweaks, lo, hi, 2)

	var head, stolen [BlockSize]byte
	c.xex(head[:], src[:BlockSize], first, 1, encrypt)
	copy(stolen[:], src[BlockSize:])
	copy(stolen[rem:], head[rem:])
	c.xex(dst[:BlockSize], stolen[:], second, 1, encrypt)
	copy(dst[BlockSize:], head[:rem])
}

// fillTweaks writes the n tweaks starting at hi:lo into the batch and
// returns the one after them.
func fillTweaks(tweaks *[batchBytes]byte, lo, hi uint64, n int) (uint64, uint64) {
	for off := 0; off < n*BlockSize; off += BlockSize {
		binary.LittleEndian.PutUint64(tweaks[off:], lo)
		binary.LittleEndian.PutUint64(tweaks[off+8:], hi)
		lo, hi = mulAlpha(lo, hi)
	}
	return lo, hi
}

// mulAlpha multiplies the tweak by the primitive element alpha in
// GF(2^128) with the XTS polynomial x^128 + x^7 + x^2 + x + 1, the tweak
// being the little-endian polynomial hi:lo. The reduction is a mask, not
// a branch, so the tweak chain runs in constant time.
func mulAlpha(lo, hi uint64) (uint64, uint64) {
	carry := uint64(int64(hi) >> 63)
	return lo<<1 ^ 0x87&carry, hi<<1 | lo>>63
}

// xex applies the XEX construction under K1 to n whole blocks:
// dst[i] = E(src[i] XOR tweaks[i]) XOR tweaks[i], or the decrypting
// equivalent. dst may be src.
func (c *Cipher) xex(dst, src, tweaks []byte, n int, encrypt bool) {
	if c.kernel != nil {
		c.kernel.xex(dst, src, tweaks, n, encrypt)
		return
	}
	xexGeneric(c.dataCipher, dst, src, tweaks, n, encrypt)
}

// seed encrypts n sector-number blocks in place under K2.
func (c *Cipher) seed(seeds []byte, n int) {
	if c.kernel != nil {
		c.kernel.seed(seeds, n)
		return
	}
	xexGeneric(c.tweakCipher, seeds, seeds, zeroTweaks[:], n, true)
}

// bouncePool holds the one block the crypto/aes engine routes every
// cipher.Block call through. Arguments of an interface call escape, so
// handing it dst, src or span's stack batches directly would move those
// to the heap for both engines; the bounce block is heap memory already.
var bouncePool = sync.Pool{New: func() any { return new([BlockSize]byte) }}

func xexGeneric(b cipher.Block, dst, src, tweaks []byte, n int, encrypt bool) {
	buf := bouncePool.Get().(*[BlockSize]byte)
	for off := 0; off < n*BlockSize; off += BlockSize {
		t0 := binary.LittleEndian.Uint64(tweaks[off:])
		t1 := binary.LittleEndian.Uint64(tweaks[off+8:])
		binary.LittleEndian.PutUint64(buf[0:], binary.LittleEndian.Uint64(src[off:])^t0)
		binary.LittleEndian.PutUint64(buf[8:], binary.LittleEndian.Uint64(src[off+8:])^t1)
		if encrypt {
			b.Encrypt(buf[:], buf[:])
		} else {
			b.Decrypt(buf[:], buf[:])
		}
		binary.LittleEndian.PutUint64(dst[off:], binary.LittleEndian.Uint64(buf[0:])^t0)
		binary.LittleEndian.PutUint64(dst[off+8:], binary.LittleEndian.Uint64(buf[8:])^t1)
	}
	bouncePool.Put(buf)
}
