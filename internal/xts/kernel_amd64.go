//go:build amd64 && !purego

package xts

// roundKeyBytes holds the largest schedule: AES-256's 15 round keys.
const roundKeyBytes = 15 * BlockSize

func cpuHasAES() bool

//go:noescape
func expandKey(key *byte, nr int, enc, dec *[roundKeyBytes]byte)

//go:noescape
func encBlocksXEX(rk *[roundKeyBytes]byte, nr int, dst, src, tweaks *byte, n int)

//go:noescape
func decBlocksXEX(rk *[roundKeyBytes]byte, nr int, dst, src, tweaks *byte, n int)

var hasAES = cpuHasAES()

// kernel is the AES-NI engine: the package's own key schedules (crypto/aes
// does not expose its) driven eight blocks at a time by the assembly in
// kernel_amd64.s.
type kernel struct {
	nr              int
	enc, dec, tweak [roundKeyBytes]byte // K1 forward, K1 equivalent-inverse, K2 forward
}

// newKernel expands both halves of an already length-checked XTS key, or
// returns nil on a CPU without AES-NI.
func newKernel(key []byte) *kernel {
	if !hasAES {
		return nil
	}
	half := len(key) / 2
	k := &kernel{nr: 6 + half/4}
	expandKey(&key[0], k.nr, &k.enc, &k.dec)
	expandKey(&key[half], k.nr, &k.tweak, nil)
	return k
}

// xex and seed take n >= 1 blocks; the index expressions are the bounds
// checks the assembly does not make.
func (k *kernel) xex(dst, src, tweaks []byte, n int, encrypt bool) {
	end := n*BlockSize - 1
	_, _, _ = dst[end], src[end], tweaks[end]
	if encrypt {
		encBlocksXEX(&k.enc, k.nr, &dst[0], &src[0], &tweaks[0], n)
	} else {
		decBlocksXEX(&k.dec, k.nr, &dst[0], &src[0], &tweaks[0], n)
	}
}

func (k *kernel) seed(seeds []byte, n int) {
	_ = seeds[n*BlockSize-1]
	encBlocksXEX(&k.tweak, k.nr, &seeds[0], &seeds[0], &zeroTweaks[0], n)
}
