package sev

import (
	"crypto/x509"
	_ "embed"
	"encoding/pem"
	"errors"
	"sync"
)

//go:embed ask_ark_sim.pem
var productChainPEM string

// ProductChainPEM returns the product line's ASK and ARK certificates in
// PEM, ASK first, as AMD publishes them (ask_ark_{product}.pem) and a KDS
// serves them at its cert_chain endpoint.
func ProductChainPEM() string { return productChainPEM }

// ProductChain returns the product line's ASK and ARK, parsed once and
// shared: callers treat them as immutable. The verifier carries them and
// checks the ASK→ARK link before it trusts either; it never takes an ASK
// or an ARK off the network.
func ProductChain() (ask, ark *x509.Certificate, err error) {
	certs, err := productChain()
	if err != nil {
		return nil, nil, err
	}
	return certs[0], certs[1], nil
}

var productChain = sync.OnceValues(func() ([]*x509.Certificate, error) {
	ask, rest := pem.Decode([]byte(productChainPEM))
	ark, _ := pem.Decode(rest)
	if ask == nil || ark == nil {
		return nil, errors.New("sev: the product chain is not two PEM blocks")
	}
	return x509.ParseCertificates(append(ask.Bytes, ark.Bytes...))
})
