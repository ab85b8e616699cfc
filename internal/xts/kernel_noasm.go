//go:build !amd64 || purego

package xts

// kernel has no implementation on this build: newKernel always returns
// nil, which routes every Cipher through the crypto/aes path in xts.go.
type kernel struct{}

func newKernel([]byte) *kernel { return nil }

func (*kernel) xex([]byte, []byte, []byte, int, bool) { panic("xts: no kernel") }

func (*kernel) seed([]byte, int) { panic("xts: no kernel") }
