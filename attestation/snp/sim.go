package snp

import (
	"fmt"
	"net/http"

	"revelio/internal/amdsp"
	"revelio/internal/kds"
	"revelio/internal/measure"
	"revelio/internal/sev"
)

// CertChainPath is the KDS endpoint serving the ASK/ARK chain (PEM).
const CertChainPath = kds.CertChainPath

// Simulator is a self-contained software AMD estate: a manufacturer key
// hierarchy with a KDS HTTP front end, able to mint chips and demo
// evidence. It is what revelio-kds serves and what tests or examples
// stand up when they need an SEV-SNP substrate without a Deployment.
type Simulator struct {
	mfr    *amdsp.Manufacturer
	server *kds.Server
}

// NewSimulator derives a manufacturer from seed and wires its KDS.
func NewSimulator(seed []byte) (*Simulator, error) {
	mfr, err := amdsp.NewManufacturer(seed)
	if err != nil {
		return nil, err
	}
	return &Simulator{mfr: mfr, server: kds.NewServer(mfr)}, nil
}

// Handler returns the KDS HTTP endpoint.
func (s *Simulator) Handler() http.Handler { return s.server }

// LaunchGuest mints a chip from chipSeed, launches a guest measured
// over blob, and returns the guest's report signer (the issuing side of
// the provider) together with its launch measurement — everything a
// test or demo needs to issue verifiable evidence without a full VM.
func (s *Simulator) LaunchGuest(chipSeed []byte, tcb uint64, blob []byte) (ReportSigner, Measurement, error) {
	return s.launch(chipSeed, tcb, blob, "guest")
}

// launch mints a chip and launches a guest measured over blob and label.
func (s *Simulator) launch(chipSeed []byte, tcb uint64, blob []byte, label string) (ReportSigner, Measurement, error) {
	chip, err := s.mfr.MintProcessor(chipSeed, tcb)
	if err != nil {
		return nil, Measurement{}, err
	}
	h := chip.LaunchStart(0x30000, 1)
	if err := chip.LaunchUpdate(h, measure.PageNormal, 0xFFC00000, blob, label); err != nil {
		return nil, Measurement{}, err
	}
	golden, err := chip.LaunchFinish(h)
	if err != nil {
		return nil, Measurement{}, err
	}
	guest, err := chip.GuestChannel(h)
	if err != nil {
		return nil, Measurement{}, err
	}
	return guest, golden, nil
}

// DemoEvidence is a freshly minted chip plus a sample report — the crib
// sheet a verifier needs to exercise the KDS.
type DemoEvidence struct {
	ChipID    ChipID
	TCB       uint64
	Golden    Measurement
	ReportRaw []byte
}

// MintDemo mints a chip from chipSeed, launches a minimal measured
// guest, and returns a serialized sample report for it.
func (s *Simulator) MintDemo(chipSeed []byte, tcb uint64) (*DemoEvidence, error) {
	guest, golden, err := s.launch(chipSeed, tcb, []byte("demo firmware"), "ovmf")
	if err != nil {
		return nil, err
	}
	report, err := guest.Report(sev.ReportData{})
	if err != nil {
		return nil, err
	}
	raw, err := report.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("snp: marshal demo report: %w", err)
	}
	return &DemoEvidence{
		ChipID:    report.ChipID,
		TCB:       report.TCBVersion,
		Golden:    golden,
		ReportRaw: raw,
	}, nil
}
