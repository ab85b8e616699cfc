// Package amdsp is the software stand-in for the AMD Secure Processor and
// the manufacturer key hierarchy behind it.
//
// A Manufacturer models AMD: it mints SecureProcessors, each with a
// unique ChipID and a Versioned Chip Endorsement Key (VCEK) derived from
// the manufacturer secret, the chip identity and the TCB version — so a
// TCB update rotates the VCEK exactly as on real silicon — and issues the
// VCEK certificates internal/kds serves under the product line's ASK,
// which internal/sev carries for the verifier: the simulator conforms to
// that chain. Every Manufacturer derives the ASK's key from one
// product-line secret; none holds the ARK's.
//
// A SecureProcessor executes guest launches: LaunchStart/Update/Finish
// maintain the measurement ledger, and the post-launch guest channel hands
// out VCEK-signed attestation reports and measurement-derived sealing keys
// — the two primitives everything in Revelio builds on.
package amdsp

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha512"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"revelio/internal/kdf"
	"revelio/internal/measure"
	"revelio/internal/p384"
	"revelio/internal/sev"
)

var (
	// ErrUnknownLaunch reports a launch handle that does not exist.
	ErrUnknownLaunch = errors.New("amdsp: unknown launch handle")
	// ErrLaunchNotFinalized reports use of the guest channel before
	// LaunchFinish.
	ErrLaunchNotFinalized = errors.New("amdsp: launch not finalized")
	// ErrLaunchFinalized reports an update to an already finalized launch.
	ErrLaunchFinalized = errors.New("amdsp: launch already finalized")
	// ErrUnknownChip reports a VCEK request for a chip the manufacturer
	// never minted. It wraps sev.ErrUnknownChip, which the KDS answers
	// with 404.
	ErrUnknownChip = fmt.Errorf("amdsp: %w", sev.ErrUnknownChip)
)

// certValidity is the fixed validity window of simulated certificates;
// generous so tests never race expiry.
const certValidity = 20 * 365 * 24 * time.Hour

// deriveECDSAKey deterministically derives a P-384 key pair from secret
// material and a context label.
func deriveECDSAKey(secret []byte, context string) (*ecdsa.PrivateKey, error) {
	curve := elliptic.P384()
	params := curve.Params()
	okm, err := kdf.Derive(sha512.New384, secret, nil, []byte("ecdsa-p384:"+context), 56)
	if err != nil {
		return nil, fmt.Errorf("amdsp: derive key material: %w", err)
	}
	// d = okm mod (N-1) + 1; the tiny bias is irrelevant for a simulator.
	d := new(big.Int).SetBytes(okm)
	d.Mod(d, new(big.Int).Sub(params.N, big.NewInt(1)))
	d.Add(d, big.NewInt(1))

	priv := &ecdsa.PrivateKey{D: d}
	priv.PublicKey.Curve = curve
	priv.PublicKey.X, priv.PublicKey.Y = curve.ScalarBaseMult(d.Bytes())
	return priv, nil
}

func deterministicSerial(parts ...[]byte) *big.Int {
	h := sha512.New384()
	for _, p := range parts {
		h.Write(p)
	}
	return new(big.Int).SetBytes(h.Sum(nil)[:16])
}

// productASKKey is the product line's ASK key, derived once per process
// from the product line's secret. The certificate internal/sev carries
// for it was issued once, under an ARK key that was then thrown away.
var productASKKey = sync.OnceValues(func() (*ecdsa.PrivateKey, error) {
	return deriveECDSAKey([]byte("revelio-sim product line"), "ask")
})

// Manufacturer models AMD's signing infrastructure.
type Manufacturer struct {
	secret []byte
	askKey *ecdsa.PrivateKey
	ask    *x509.Certificate // the product line's, as internal/sev carries it
	notBef time.Time
	mu     sync.Mutex
	// minted is the ledger of fabricated chips: per chip, the VCEK at
	// every TCB version it was minted or certified at.
	minted map[sev.ChipID]map[uint64]*vcekEntry
	ops    opCounters
}

// vcekEntry is one chip's VCEK at one TCB version: the public key (so
// issuing never repeats the derivation) and the certificate, signed once
// under mu. The ledger is unbounded by design: AMD's KDS serves every TCB
// version of a genuine chip, and each entry is kept for good.
type vcekEntry struct {
	mu  sync.Mutex
	pub *ecdsa.PublicKey
	der []byte // nil until issued
}

// opCounters are the manufacturer-wide P-384 operation counts; every chip
// a Manufacturer mints counts its report signatures here too.
type opCounters struct {
	reportsSigned, vcekKeysDerived, vcekCertsMinted atomic.Uint64
}

// Stats is an exact count of the P-384 private-key work done under one
// Manufacturer since it was created — by the manufacturer itself and by
// every SecureProcessor it minted. Tests read it before and after an
// operation to pin that operation's signature budget.
type Stats struct {
	// ReportsSigned counts attestation reports signed by any minted chip.
	ReportsSigned uint64 `json:"reports_signed"`
	// VCEKKeysDerived counts VCEK key-pair derivations (one scalar
	// multiplication each).
	VCEKKeysDerived uint64 `json:"vcek_keys_derived"`
	// VCEKCertsMinted counts VCEK certificates signed with the ASK.
	VCEKCertsMinted uint64 `json:"vcek_certs_minted"`
}

// Sub returns the operations counted since an earlier snapshot.
func (s Stats) Sub(earlier Stats) Stats {
	return Stats{
		ReportsSigned:   s.ReportsSigned - earlier.ReportsSigned,
		VCEKKeysDerived: s.VCEKKeysDerived - earlier.VCEKKeysDerived,
		VCEKCertsMinted: s.VCEKCertsMinted - earlier.VCEKCertsMinted,
	}
}

// Stats returns the current operation counts.
func (m *Manufacturer) Stats() Stats {
	return Stats{
		ReportsSigned:   m.ops.reportsSigned.Load(),
		VCEKKeysDerived: m.ops.vcekKeysDerived.Load(),
		VCEKCertsMinted: m.ops.vcekCertsMinted.Load(),
	}
}

// NewManufacturer creates a manufacturer whose chips are deterministically
// derived from seed. Their VCEKs are issued under the product line's ASK.
func NewManufacturer(seed []byte) (*Manufacturer, error) {
	if len(seed) == 0 {
		return nil, errors.New("amdsp: empty manufacturer seed")
	}
	ask, _, err := sev.ProductChain()
	if err != nil {
		return nil, fmt.Errorf("amdsp: %w", err)
	}
	askKey, err := productASKKey()
	if err != nil {
		return nil, err
	}
	return &Manufacturer{
		secret: append([]byte(nil), seed...),
		askKey: askKey,
		ask:    ask,
		notBef: time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC),
		minted: make(map[sev.ChipID]map[uint64]*vcekEntry),
	}, nil
}

// chipSecret derives per-chip secret material.
func (m *Manufacturer) chipSecret(chipSeed []byte) []byte {
	h := sha512.New()
	h.Write(m.secret)
	h.Write([]byte("chip-secret"))
	h.Write(chipSeed)
	return h.Sum(nil)
}

func (m *Manufacturer) vcekKey(chipID sev.ChipID, tcb uint64) (*ecdsa.PrivateKey, error) {
	var tcbBytes [8]byte
	binary.LittleEndian.PutUint64(tcbBytes[:], tcb)
	m.ops.vcekKeysDerived.Add(1)
	return deriveECDSAKey(m.secret, "vcek:"+string(chipID[:])+":"+string(tcbBytes[:]))
}

// MintProcessor fabricates a SecureProcessor with an identity derived from
// chipSeed running SNP firmware at the given TCB version.
func (m *Manufacturer) MintProcessor(chipSeed []byte, tcb uint64) (*SecureProcessor, error) {
	secret := m.chipSecret(chipSeed)
	var chipID sev.ChipID
	copy(chipID[:], secret) // 64 bytes of SHA-512 output

	vcek, err := m.vcekKey(chipID, tcb)
	if err != nil {
		return nil, err
	}
	m.remember(chipID, tcb, &vcek.PublicKey)
	return &SecureProcessor{
		chipID:   chipID,
		tcb:      tcb,
		vcek:     vcek,
		sealRoot: secret,
		ops:      &m.ops,
		launches: make(map[LaunchHandle]*launch),
		vcekPub: sync.OnceValue(func() *p384.PublicKey {
			pub, err := p384.NewPublicKey(&vcek.PublicKey)
			if err != nil {
				panic("amdsp: derived VCEK: " + err.Error())
			}
			return pub
		}),
	}, nil
}

// remember enters chipID's VCEK at tcb in the ledger unless it is there,
// and returns the ledger's entry.
func (m *Manufacturer) remember(chipID sev.ChipID, tcb uint64, pub *ecdsa.PublicKey) *vcekEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.minted[chipID] == nil {
		m.minted[chipID] = make(map[uint64]*vcekEntry)
	}
	if m.minted[chipID][tcb] == nil {
		m.minted[chipID][tcb] = &vcekEntry{pub: pub}
	}
	return m.minted[chipID][tcb]
}

// VCEKCertDER returns the VCEK certificate for a minted chip at a TCB
// version, signed by the ASK once per (chip, TCB). This is what the KDS
// serves. A failure, ErrUnknownChip included, is not remembered.
func (m *Manufacturer) VCEKCertDER(chipID sev.ChipID, tcb uint64) ([]byte, error) {
	m.mu.Lock()
	tcbs, ok := m.minted[chipID]
	e := tcbs[tcb]
	m.mu.Unlock()
	if !ok {
		return nil, ErrUnknownChip
	}
	if e == nil {
		// A TCB version the chip was never minted at (a firmware update
		// the KDS is asked about first): derive it now.
		vcek, err := m.vcekKey(chipID, tcb)
		if err != nil {
			return nil, err
		}
		e = m.remember(chipID, tcb, &vcek.PublicKey)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.der == nil {
		tmpl := &x509.Certificate{
			SerialNumber:    deterministicSerial(chipID[:], binary.BigEndian.AppendUint64(nil, tcb)),
			Subject:         pkix.Name{CommonName: "VCEK-SIM", Organization: []string{"AMD-SIM"}},
			NotBefore:       m.notBef,
			NotAfter:        m.notBef.Add(certValidity),
			KeyUsage:        x509.KeyUsageDigitalSignature,
			ExtraExtensions: sev.VCEKExtensions(chipID, tcb),
		}
		der, err := x509.CreateCertificate(rand.Reader, tmpl, m.ask, e.pub, m.askKey)
		if err != nil {
			return nil, fmt.Errorf("amdsp: create vcek cert: %w", err)
		}
		e.der = der
		m.ops.vcekCertsMinted.Add(1)
	}
	return append([]byte(nil), e.der...), nil
}

// LaunchHandle identifies an in-progress or finished guest launch.
type LaunchHandle uint64

type launch struct {
	ledger      *measure.Ledger
	measurement measure.Measurement
	policy      uint64
	guestSVN    uint32
	finalized   bool
}

// SecureProcessor models one chip's AMD-SP firmware.
type SecureProcessor struct {
	chipID   sev.ChipID
	tcb      uint64
	vcek     *ecdsa.PrivateKey
	vcekPub  func() *p384.PublicKey // vcek's public half, prepared on first use
	sealRoot []byte
	ops      *opCounters // the minting Manufacturer's

	mu       sync.Mutex
	next     LaunchHandle
	launches map[LaunchHandle]*launch
}

// ChipID returns the unique processor identifier.
func (sp *SecureProcessor) ChipID() sev.ChipID { return sp.chipID }

// TCB returns the SNP firmware TCB version.
func (sp *SecureProcessor) TCB() uint64 { return sp.tcb }

// VCEKPublic returns the chip's current VCEK public key, prepared for
// sev.Report.Verify (on first use: a chip nobody asks pays nothing).
func (sp *SecureProcessor) VCEKPublic() *p384.PublicKey { return sp.vcekPub() }

// LaunchStart opens a new guest launch context with the given guest policy
// and SVN.
func (sp *SecureProcessor) LaunchStart(policy uint64, guestSVN uint32) LaunchHandle {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.next++
	h := sp.next
	sp.launches[h] = &launch{ledger: measure.NewLedger(), policy: policy, guestSVN: guestSVN}
	return h
}

func (sp *SecureProcessor) launchFor(h LaunchHandle) (*launch, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	l, ok := sp.launches[h]
	if !ok {
		return nil, ErrUnknownLaunch
	}
	return l, nil
}

// LaunchUpdate measures one page of guest contents into the launch digest.
func (sp *SecureProcessor) LaunchUpdate(h LaunchHandle, t measure.PageType, gpa uint64, data []byte, label string) error {
	l, err := sp.launchFor(h)
	if err != nil {
		return err
	}
	if l.finalized {
		return ErrLaunchFinalized
	}
	return l.ledger.Extend(t, gpa, data, label)
}

// LaunchFinish finalizes the measurement and unlocks the guest channel.
func (sp *SecureProcessor) LaunchFinish(h LaunchHandle) (measure.Measurement, error) {
	l, err := sp.launchFor(h)
	if err != nil {
		return measure.Measurement{}, err
	}
	if l.finalized {
		return measure.Measurement{}, ErrLaunchFinalized
	}
	l.measurement = l.ledger.Finalize()
	l.finalized = true
	return l.measurement, nil
}

// GuestChannel returns the protected guest-to-AMD-SP channel for a
// finalized launch.
func (sp *SecureProcessor) GuestChannel(h LaunchHandle) (*GuestChannel, error) {
	l, err := sp.launchFor(h)
	if err != nil {
		return nil, err
	}
	if !l.finalized {
		return nil, ErrLaunchNotFinalized
	}
	return &GuestChannel{sp: sp, l: l}, nil
}

// GuestChannel is the trusted path between a running guest and the AMD-SP
// (§2.1.1, §2.1.3 of the paper).
type GuestChannel struct {
	sp *SecureProcessor
	l  *launch
}

// Measurement returns the guest's launch measurement.
func (g *GuestChannel) Measurement() measure.Measurement { return g.l.measurement }

// Report produces a VCEK-signed attestation report with the given
// REPORT_DATA bound into it.
func (g *GuestChannel) Report(data sev.ReportData) (*sev.Report, error) {
	r := &sev.Report{
		Version:     sev.ReportVersion,
		GuestSVN:    g.l.guestSVN,
		Policy:      g.l.policy,
		TCBVersion:  g.sp.tcb,
		Measurement: g.l.measurement,
		ReportData:  data,
		ChipID:      g.sp.chipID,
	}
	var signed [sev.SignedSize]byte
	digest := sha512.Sum384(r.AppendSigned(signed[:0]))
	sig, err := ecdsa.SignASN1(rand.Reader, g.sp.vcek, digest[:])
	if err != nil {
		return nil, fmt.Errorf("amdsp: sign report: %w", err)
	}
	r.Signature = sig
	g.sp.ops.reportsSigned.Add(1)
	return r, nil
}

// SealingKey derives a 32-byte key bound to this chip and this guest's
// measurement (§2.1.3): a guest with a different measurement — or on a
// different chip — derives a different key.
func (g *GuestChannel) SealingKey(context string) ([]byte, error) {
	key, err := kdf.Derive(sha512.New384, g.sp.sealRoot, g.l.measurement[:],
		[]byte("sealing:"+context), 32)
	if err != nil {
		return nil, fmt.Errorf("amdsp: derive sealing key: %w", err)
	}
	return key, nil
}
