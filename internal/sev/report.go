// Package sev defines the SEV-SNP attestation-report wire format and the
// guest-side device through which a confidential VM talks to the AMD-SP
// over the protected guest channel.
//
// The report layout is a fixed binary structure modelled on the SNP ABI's
// ATTESTATION_REPORT: version, policy, TCB, measurement, 64 bytes of
// caller-chosen REPORT_DATA, the chip identity, and an ECDSA P-384
// signature by the VCEK over everything that precedes it. The package also
// owns the VCEK certificate extensions naming that chip and TCB: verifiers
// read them (VCEKIdentity), the simulated AMD-SP mints to them. It owns
// the REPORT_DATA binding (HashOf, HashOfWithNonce): the guest computes it
// to request a report, the verifier to check one. And it owns the product
// line's ASK and ARK certificates (ProductChain), committed once as AMD
// publishes them and embedded: the verifier judges every VCEK against
// them, the simulated manufacturer issues under them, and the simulated
// KDS serves them (ProductChainPEM).
package sev

import (
	"crypto/sha512"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"encoding/binary"
	"errors"
	"fmt"

	"revelio/internal/measure"
	"revelio/internal/p384"
)

const (
	// ReportVersion is the only report version this repository emits.
	ReportVersion = 2

	// ReportDataSize is the size of the caller-supplied REPORT_DATA field.
	ReportDataSize = 64

	// ChipIDSize is the size of the unique processor identifier.
	ChipIDSize = 64

	reportMagic = 0x534e5052 // "RPNS"

	// maxSigLen bounds the DER-encoded ECDSA P-384 signature.
	maxSigLen = 120
)

var (
	// ErrBadReport reports an unparseable serialized report.
	ErrBadReport = errors.New("sev: bad report encoding")
	// ErrBadSignature reports a report whose signature does not verify.
	ErrBadSignature = errors.New("sev: report signature invalid")
	// ErrUnknownChip reports a VCEK asked for a chip its issuer never
	// minted. An issuer wraps it; the KDS answers it with 404 and any
	// other issuer failure with 500.
	ErrUnknownChip = errors.New("sev: unknown chip id")
)

// ChipID uniquely identifies a processor.
type ChipID [ChipIDSize]byte

// ReportData is the caller-chosen payload cryptographically bound into a
// report (hash of a public key or CSR in Revelio's protocol).
type ReportData [ReportDataSize]byte

// HashOf returns the 64-byte REPORT_DATA binding for a blob.
func HashOf(blob []byte) ReportData {
	return ReportData(sha512.Sum512(blob))
}

// HashOfWithNonce returns the REPORT_DATA binding for a blob under a
// verifier-chosen nonce — the freshness challenge for the well-known
// attestation endpoint. The encoding is domain-separated from HashOf so
// a nonce-less report can never be replayed as a nonce-bound one.
func HashOfWithNonce(blob, nonce []byte) ReportData {
	h := sha512.New()
	h.Write([]byte("revelio-nonce-bound/v1"))
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(nonce)))
	h.Write(n[:])
	h.Write(nonce)
	h.Write(blob)
	var out ReportData
	h.Sum(out[:0])
	return out
}

// Report is a parsed attestation report.
type Report struct {
	Version     uint32
	GuestSVN    uint32
	Policy      uint64
	TCBVersion  uint64
	Measurement measure.Measurement
	ReportData  ReportData
	ChipID      ChipID
	// Signature is the DER-encoded ECDSA P-384 signature by the VCEK over
	// SignedBytes().
	Signature []byte
}

// SignedSize is the length of the signed portion of a report: magic,
// version, guest SVN, policy, TCB version, measurement, REPORT_DATA and
// chip identity, fixed-width and little-endian.
const SignedSize = 4 + 4 + 4 + 8 + 8 + measure.Size + ReportDataSize + ChipIDSize

// AppendSigned appends the canonical byte string the VCEK signs — every
// field except the signature, in fixed order — to b. Handed a stack array
// of SignedSize bytes it does not allocate, which is how Verify, the
// AMD-SP's signer and the proof-cache key hash a report.
func (r *Report) AppendSigned(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, reportMagic)
	b = binary.LittleEndian.AppendUint32(b, r.Version)
	b = binary.LittleEndian.AppendUint32(b, r.GuestSVN)
	b = binary.LittleEndian.AppendUint64(b, r.Policy)
	b = binary.LittleEndian.AppendUint64(b, r.TCBVersion)
	b = append(b, r.Measurement[:]...)
	b = append(b, r.ReportData[:]...)
	return append(b, r.ChipID[:]...)
}

// SignedBytes returns AppendSigned's bytes in a new slice.
func (r *Report) SignedBytes() []byte {
	return r.AppendSigned(make([]byte, 0, SignedSize))
}

// Verify checks the report signature against the given VCEK public key, a
// P-384 key as the SEV-SNP ABI has it — p384.NewPublicKey prepares no
// other. Report, signature and key are all public, so the check runs on
// the variable-time kernel in internal/p384; the key comes prepared
// because whoever verifies one report under a VCEK verifies the next one
// too (attest keeps it with the VCEK's chain proof).
func (r *Report) Verify(vcek *p384.PublicKey) error {
	var signed [SignedSize]byte
	digest := sha512.Sum384(r.AppendSigned(signed[:0]))
	if !vcek.Verify(digest[:], r.Signature) {
		return ErrBadSignature
	}
	return nil
}

// MarshalBinary serializes the report: signed portion, then signature
// length, then signature bytes.
func (r *Report) MarshalBinary() ([]byte, error) {
	if len(r.Signature) == 0 || len(r.Signature) > maxSigLen {
		return nil, fmt.Errorf("sev: signature length %d out of range", len(r.Signature))
	}
	out := r.AppendSigned(make([]byte, 0, SignedSize+2+len(r.Signature)))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(r.Signature)))
	return append(out, r.Signature...), nil
}

// UnmarshalBinary parses a report produced by MarshalBinary. It validates
// structure only; call Verify for cryptographic validation.
func (r *Report) UnmarshalBinary(data []byte) error {
	if len(data) < SignedSize+2 {
		return fmt.Errorf("%w: %d bytes is shorter than the fixed part", ErrBadReport, len(data))
	}
	if binary.LittleEndian.Uint32(data) != reportMagic {
		return fmt.Errorf("%w: magic", ErrBadReport)
	}
	if binary.LittleEndian.Uint32(data[4:]) != ReportVersion {
		return fmt.Errorf("%w: version", ErrBadReport)
	}
	sig := data[SignedSize+2:]
	if n := int(binary.LittleEndian.Uint16(data[SignedSize:])); n == 0 || n > maxSigLen || n != len(sig) {
		return fmt.Errorf("%w: signature length %d with %d bytes left", ErrBadReport, n, len(sig))
	}
	r.Version = ReportVersion
	r.GuestSVN = binary.LittleEndian.Uint32(data[8:])
	r.Policy = binary.LittleEndian.Uint64(data[12:])
	r.TCBVersion = binary.LittleEndian.Uint64(data[20:])
	rest := data[28:]
	rest = rest[copy(r.Measurement[:], rest):]
	rest = rest[copy(r.ReportData[:], rest):]
	copy(r.ChipID[:], rest)
	r.Signature = append([]byte(nil), sig...)
	return nil
}

// OID arcs for the VCEK certificate extensions carrying the chip identity
// and TCB version (stand-ins for AMD's KDS extension OIDs).
var (
	oidChipID = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 56789, 1, 1}
	oidTCB    = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 56789, 1, 2}
)

// VCEKExtensions returns the extensions naming the chip and TCB version a
// VCEK endorses: the raw chip identity, and the TCB as 8 big-endian bytes.
func VCEKExtensions(chipID ChipID, tcb uint64) []pkix.Extension {
	return []pkix.Extension{
		{Id: oidChipID, Value: chipID[:]},
		{Id: oidTCB, Value: binary.BigEndian.AppendUint64(nil, tcb)},
	}
}

// VCEKIdentity extracts the ChipID and TCB version embedded in a VCEK
// certificate.
func VCEKIdentity(cert *x509.Certificate) (ChipID, uint64, error) {
	var (
		chipID  ChipID
		tcb     uint64
		gotChip bool
		gotTCB  bool
	)
	for _, ext := range cert.Extensions {
		switch {
		case ext.Id.Equal(oidChipID):
			if len(ext.Value) != ChipIDSize {
				return chipID, 0, fmt.Errorf("sev: chip id extension is %d bytes", len(ext.Value))
			}
			copy(chipID[:], ext.Value)
			gotChip = true
		case ext.Id.Equal(oidTCB):
			if len(ext.Value) != 8 {
				return chipID, 0, fmt.Errorf("sev: tcb extension is %d bytes", len(ext.Value))
			}
			tcb = binary.BigEndian.Uint64(ext.Value)
			gotTCB = true
		}
	}
	if !gotChip || !gotTCB {
		return chipID, 0, errors.New("sev: certificate lacks chip identity extensions")
	}
	return chipID, tcb, nil
}
