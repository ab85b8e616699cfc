package kds

import (
	"bytes"
	"encoding/pem"
	"errors"
	"testing"

	"revelio/internal/sev"
)

// pemBlocks returns the PEM blocks of body, in order.
func pemBlocks(body []byte) []*pem.Block {
	var blocks []*pem.Block
	for rest := body; ; {
		block, next := pem.Decode(rest)
		if block == nil {
			return blocks
		}
		blocks = append(blocks, block)
		rest = next
	}
}

// FuzzParseCertChain drives the cert_chain parser with bytes the network
// controls. Either outcome is fine — ErrBadResponse, or exactly the two
// certificates the body's two PEM blocks carry, in order — but never a
// panic and never an unclassified failure.
func FuzzParseCertChain(f *testing.F) {
	chain := []byte(sev.ProductChainPEM()) // the simulated KDS's real response
	blocks := pemBlocks(chain)
	if len(blocks) != 2 {
		f.Fatalf("simulated KDS chain has %d blocks, want 2", len(blocks))
	}
	ask, ark := pem.EncodeToMemory(blocks[0]), pem.EncodeToMemory(blocks[1])
	f.Add(chain)
	f.Add(chain[:len(chain)/2])                                  // truncated inside the ARK block
	f.Add(ask)                                                   // one certificate
	f.Add(append(bytes.Clone(ark), ask...))                      // reordered: parsed; no verifier reads it
	f.Add(append(bytes.Clone(chain), ask...))                    // three blocks
	f.Add(append([]byte("junk\n"), chain...))                    // text around the blocks
	f.Add(blocks[0].Bytes)                                       // DER, not PEM
	f.Add([]byte("not a certificate chain"))                     // no PEM at all
	f.Add(bytes.Replace(chain, []byte("MII"), []byte("AII"), 1)) // a block that is not a certificate

	f.Fuzz(func(t *testing.T, body []byte) {
		pair, err := parseCertChain(body)
		if err != nil {
			if !errors.Is(err, ErrBadResponse) {
				t.Fatalf("unclassified failure: %v", err)
			}
			return
		}
		blocks := pemBlocks(body)
		if len(blocks) != 2 {
			t.Fatalf("accepted a body with %d PEM blocks", len(blocks))
		}
		if !bytes.Equal(pair.ask.Raw, blocks[0].Bytes) || !bytes.Equal(pair.ark.Raw, blocks[1].Bytes) {
			t.Fatal("accepted pair is not the body's two blocks in order")
		}
	})
}
