// Package netguard implements the guest network policy Revelio bakes into
// the image at build time (§5.1.3): all inbound connections are denied
// except an explicit allow-list (the HTTPS port of the web-facing
// service), which is how the paper removes ssh and every other management
// path into a running VM (requirement F4).
//
// The policy is a rootfs config file — so it is covered by dm-verity and
// reflected in the attestation measurement. What the running system
// enforces of it is the web tier: a node opens its HTTPS front end and
// its RA-TLS upstream listener only if the policy admits inbound TCP 443
// (core.Deployment.StartWeb). The outbound bit and the SP-facing control
// listener are not enforced.
package netguard

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Direction of a connection relative to the guest.
type Direction int

// Connection directions.
const (
	Inbound Direction = iota + 1
	Outbound
)

func (d Direction) String() string {
	switch d {
	case Inbound:
		return "inbound"
	case Outbound:
		return "outbound"
	default:
		return fmt.Sprintf("direction(%d)", int(d))
	}
}

// ErrDenied reports a connection rejected by policy.
var ErrDenied = errors.New("netguard: connection denied by policy")

// Policy is the declarative network policy serialized into the image.
type Policy struct {
	// AllowedInboundTCP lists TCP ports that accept inbound connections.
	// Everything not listed — notably 22/ssh — is denied.
	AllowedInboundTCP []uint16 `json:"allowedInboundTcp"`
	// AllowOutbound permits guest-initiated connections (the Boundary
	// Node needs them to reach IC replicas; a standalone CryptPad server
	// does not).
	AllowOutbound bool `json:"allowOutbound"`
}

// DefaultWebPolicy is the policy Revelio images ship by default: HTTPS
// only, no outbound.
func DefaultWebPolicy() Policy {
	return Policy{AllowedInboundTCP: []uint16{443}}
}

// Marshal serializes the policy for inclusion in the rootfs. The encoding
// is deterministic (fixed field order, sorted ports are the caller's
// choice and preserved).
func (p Policy) Marshal() ([]byte, error) {
	out, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("netguard: marshal policy: %w", err)
	}
	return out, nil
}

// ParsePolicy decodes a policy file.
func ParsePolicy(data []byte) (Policy, error) {
	var p Policy
	if err := json.Unmarshal(data, &p); err != nil {
		return Policy{}, fmt.Errorf("netguard: parse policy: %w", err)
	}
	return p, nil
}

// Firewall enforces a Policy.
type Firewall struct {
	inbound  map[uint16]struct{}
	outbound bool
}

// NewFirewall compiles a policy into an enforcer.
func NewFirewall(p Policy) *Firewall {
	fw := &Firewall{
		inbound:  make(map[uint16]struct{}, len(p.AllowedInboundTCP)),
		outbound: p.AllowOutbound,
	}
	for _, port := range p.AllowedInboundTCP {
		fw.inbound[port] = struct{}{}
	}
	return fw
}

// Check returns nil if a TCP connection in the given direction to the
// given port is permitted, or an error wrapping ErrDenied.
func (f *Firewall) Check(d Direction, port uint16) error {
	switch d {
	case Inbound:
		if _, ok := f.inbound[port]; ok {
			return nil
		}
		return fmt.Errorf("%w: inbound tcp/%d", ErrDenied, port)
	case Outbound:
		if f.outbound {
			return nil
		}
		return fmt.Errorf("%w: outbound tcp/%d", ErrDenied, port)
	default:
		return fmt.Errorf("%w: unknown direction %v", ErrDenied, d)
	}
}
