package kdf

import (
	"crypto/hmac"
	"encoding/binary"
	"fmt"
	"hash"
	"sync/atomic"
)

// pbkdf2Rounds counts every HMAC invocation PBKDF2 has executed in this
// process (iterations × blocks, summed over calls).
var pbkdf2Rounds atomic.Uint64

// PBKDF2Rounds returns the number of HMAC invocations PBKDF2 has executed
// in this process so far. It only ever grows; callers read it before and
// after an operation to learn what that operation's key stretching cost,
// independent of how fast the machine is.
func PBKDF2Rounds() uint64 { return pbkdf2Rounds.Load() }

// PBKDF2 derives keyLen bytes from the password and salt using iter
// iterations of HMAC over the given hash, per RFC 8018 §5.2.
//
// The paper's dm-crypt configuration uses PBKDF2 with 1000 iterations; the
// iteration count is a parameter so the ablation bench can sweep it.
//
// The password is keyed into one HMAC for the whole call: every iteration
// is a Reset (which restores the keyed pads rather than re-hashing them)
// plus one Sum into a reused buffer, so an iteration costs two hash
// compressions and no allocation.
func PBKDF2(h func() hash.Hash, password, salt []byte, iter, keyLen int) ([]byte, error) {
	if iter < 1 {
		return nil, fmt.Errorf("kdf: pbkdf2 iteration count %d < 1", iter)
	}
	if keyLen < 0 {
		return nil, fmt.Errorf("kdf: negative pbkdf2 key length %d", keyLen)
	}
	mac := hmac.New(h, password)
	hashLen := mac.Size()
	numBlocks := (keyLen + hashLen - 1) / hashLen

	out := make([]byte, numBlocks*hashLen)
	u := make([]byte, 0, hashLen)
	var blockIndex [4]byte
	var rounds uint64
	for block := 1; block <= numBlocks; block++ {
		binary.BigEndian.PutUint32(blockIndex[:], uint32(block))

		mac.Reset()
		mac.Write(salt)
		mac.Write(blockIndex[:])
		u = mac.Sum(u[:0])
		rounds++

		acc := out[(block-1)*hashLen : block*hashLen]
		copy(acc, u)
		for i := 1; i < iter; i++ {
			mac.Reset()
			mac.Write(u)
			u = mac.Sum(u[:0])
			rounds++
			for j := range acc {
				acc[j] ^= u[j]
			}
		}
	}
	pbkdf2Rounds.Add(rounds)
	return out[:keyLen], nil
}
