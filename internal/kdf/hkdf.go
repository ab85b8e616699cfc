// Package kdf implements the key-derivation functions Revelio depends on:
// HKDF (RFC 5869) and PBKDF2 (RFC 8018). Both are implemented from scratch
// on top of crypto/hmac so the repository carries no external dependencies.
//
// HKDF derives sealing keys and per-session keys from the AMD-SP's secret
// material and the VM measurement (see internal/amdsp). PBKDF2 stretches
// dm-crypt volume passphrases exactly as the paper configures cryptsetup
// ("pbkdf2 with 1000 iterations"); it sits on every guest boot — format on
// the first, unlock on every later one — so it keys its HMAC once per call
// and counts the rounds it executes (PBKDF2Rounds).
package kdf

import (
	"crypto/hmac"
	"errors"
	"fmt"
	"hash"
)

// ErrHKDFLength reports a requested output length that exceeds the RFC 5869
// limit of 255 blocks of the underlying hash.
var ErrHKDFLength = errors.New("kdf: hkdf output length exceeds 255 blocks")

// Extract performs the HKDF-Extract step: PRK = HMAC-Hash(salt, ikm).
// A nil or empty salt is replaced by a string of zero bytes of hash length,
// as the RFC prescribes.
func Extract(h func() hash.Hash, ikm, salt []byte) []byte {
	if len(salt) == 0 {
		salt = make([]byte, h().Size())
	}
	mac := hmac.New(h, salt)
	mac.Write(ikm)
	return mac.Sum(nil)
}

// Expand performs the HKDF-Expand step, producing length bytes of output
// keying material from the pseudorandom key prk and the context info.
func Expand(h func() hash.Hash, prk, info []byte, length int) ([]byte, error) {
	hashLen := h().Size()
	if length < 0 {
		return nil, fmt.Errorf("kdf: negative hkdf length %d", length)
	}
	if length > 255*hashLen {
		return nil, ErrHKDFLength
	}
	var (
		out  = make([]byte, 0, length)
		prev []byte
	)
	for counter := byte(1); len(out) < length; counter++ {
		mac := hmac.New(h, prk)
		mac.Write(prev)
		mac.Write(info)
		mac.Write([]byte{counter})
		prev = mac.Sum(nil)
		out = append(out, prev...)
	}
	return out[:length], nil
}

// Derive runs Extract followed by Expand, the common HKDF usage.
func Derive(h func() hash.Hash, ikm, salt, info []byte, length int) ([]byte, error) {
	prk := Extract(h, ikm, salt)
	okm, err := Expand(h, prk, info, length)
	if err != nil {
		return nil, fmt.Errorf("kdf: hkdf derive: %w", err)
	}
	return okm, nil
}
