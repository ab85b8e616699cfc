// Package vm implements the Revelio guest's boot lifecycle — the genuine
// initrd/init behaviour whose code is measured into the attestation
// report (§5.2):
//
//  1. parse the measured kernel command line and extract the dm-verity
//     root hash,
//  2. set up the verity device over the rootfs partition and refuse to
//     boot on mismatch,
//  3. fully verify the rootfs ("dm-verity verify" in Table 1),
//  4. mount the read-only rootfs and load the baked-in network policy,
//  5. unlock (first boot: create) the dm-crypt persistent volume with the
//     measurement-derived sealing key,
//  6. create the VM's unique TLS identity, its CSR, and the attestation
//     report binding the CSR — and through it the key — to the TEE,
//  7. start the image's services.
//
// Every step is timed; the timings drive the Table 1 reproduction.
package vm

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"revelio/internal/blockdev"
	"revelio/internal/dmcrypt"
	"revelio/internal/dmverity"
	"revelio/internal/hypervisor"
	"revelio/internal/imagebuild"
	"revelio/internal/measure"
	"revelio/internal/netguard"
	"revelio/internal/rootfs"
	"revelio/internal/sev"
)

var (
	// ErrNoRootHash reports a kernel command line without a verity root
	// hash — the genuine init refuses to boot without one.
	ErrNoRootHash = errors.New("vm: kernel cmdline carries no verity root hash")
	// ErrRootfsVerification wraps dm-verity failures during boot.
	ErrRootfsVerification = errors.New("vm: rootfs integrity verification failed")
)

// BootTimings decomposes the guest boot, mirroring Table 1's rows.
type BootTimings struct {
	DmCryptSetup     time.Duration
	DmVeritySetup    time.Duration
	DmVerityVerify   time.Duration
	IdentityCreation time.Duration
	ServiceStartup   time.Duration
	Total            time.Duration
	FirstBoot        bool
}

// Identity is the VM's unique key pair and the attestation evidence bound
// to it (§5.2.2). One report covers both uses of the key: the CSR embeds
// the public key and is signed with the private one, so a report over the
// CSR proves to the SP node (which has the CA sign it) and to the leader
// (which encrypts the shared TLS key to it) alike that the key lives in
// this measured VM.
type Identity struct {
	Key *ecdsa.PrivateKey
	// CSRDER is the PKCS#10 certificate signing request for Key.
	CSRDER []byte
	// CSRReport carries SHA-512(CSRDER) as REPORT_DATA.
	CSRReport *sev.Report
}

// BootConfig configures a guest boot.
type BootConfig struct {
	Disk   blockdev.Device
	Table  imagebuild.PartitionTable
	Domain string
}

// VM is a booted Revelio guest.
type VM struct {
	channel     *hypervisor.Guest
	fs          *rootfs.FS
	persist     *dmcrypt.Device
	firewall    *netguard.Firewall
	identity    *Identity
	services    []imagebuild.ServiceSpec
	timings     BootTimings
	measurement measure.Measurement
	domain      string
}

// Boot runs the genuine init sequence inside the launched guest.
func Boot(guest *hypervisor.Guest, cfg BootConfig) (*VM, error) {
	start := time.Now()
	if guest == nil || guest.Channel == nil {
		return nil, errors.New("vm: nil guest")
	}
	v := &VM{channel: guest, measurement: guest.Measurement, domain: cfg.Domain}

	rootHash, err := parseRootHash(guest.Booted.Cmdline)
	if err != nil {
		return nil, err
	}
	if !strings.Contains(string(guest.Booted.Initrd), "feature:verity-setup") {
		return nil, errors.New("vm: initrd lacks verity setup")
	}

	rootPart, err := blockdev.NewLinear(cfg.Disk, cfg.Table.RootfsStart, cfg.Table.RootfsLen)
	if err != nil {
		return nil, fmt.Errorf("vm: rootfs partition: %w", err)
	}
	hashPart, err := blockdev.NewLinear(cfg.Disk, cfg.Table.HashStart, cfg.Table.HashLen)
	if err != nil {
		return nil, fmt.Errorf("vm: hash partition: %w", err)
	}
	persistPart, err := blockdev.NewLinear(cfg.Disk, cfg.Table.PersistStart, cfg.Table.PersistLen)
	if err != nil {
		return nil, fmt.Errorf("vm: persist partition: %w", err)
	}

	// dm-verity setup: parse the (untrusted) metadata partition and open
	// the device against the trusted root hash from the measured cmdline.
	t0 := time.Now()
	super := make([]byte, rootfs.BlockSize)
	if err := hashPart.ReadAt(super, 0); err != nil {
		return nil, fmt.Errorf("vm: read verity superblock: %w", err)
	}
	var meta dmverity.Metadata
	if err := meta.UnmarshalBinary(super); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrRootfsVerification, err)
	}
	treeDev, err := blockdev.NewLinear(hashPart, rootfs.BlockSize, hashPart.Size()-rootfs.BlockSize)
	if err != nil {
		return nil, fmt.Errorf("vm: hash tree partition: %w", err)
	}
	verityDev, err := dmverity.Open(blockdev.NewReadOnly(rootPart), treeDev, &meta, rootHash)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrRootfsVerification, err)
	}
	v.timings.DmVeritySetup = time.Since(t0)

	// Full verification pass (the rootfs verification service).
	t0 = time.Now()
	if err := verityDev.VerifyAll(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrRootfsVerification, err)
	}
	v.timings.DmVerityVerify = time.Since(t0)

	// Mount the rootfs and load the measured network policy.
	if v.fs, err = rootfs.Mount(verityDev); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrRootfsVerification, err)
	}
	policyBytes, err := v.fs.ReadFile(imagebuild.PolicyPath)
	if err != nil {
		return nil, fmt.Errorf("vm: read network policy: %w", err)
	}
	policy, err := netguard.ParsePolicy(policyBytes)
	if err != nil {
		return nil, err
	}
	v.firewall = netguard.NewFirewall(policy)

	// dm-crypt: unlock or (first boot) create the persistent volume with
	// the measurement-derived sealing key.
	sealingKey, err := guest.Channel.SealingKey("persist-disk")
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	v.persist, err = dmcrypt.Open(persistPart, sealingKey)
	switch {
	case errors.Is(err, dmcrypt.ErrBadHeader):
		v.timings.FirstBoot = true
		v.persist, err = dmcrypt.Format(persistPart, sealingKey, dmcrypt.Options{})
		if err != nil {
			return nil, fmt.Errorf("vm: format persistent volume: %w", err)
		}
	case err != nil:
		return nil, fmt.Errorf("vm: unlock persistent volume: %w", err)
	}
	v.timings.DmCryptSetup = time.Since(t0)

	// Unique VM identity: key pair, CSR, and the report over it (§5.2.2).
	t0 = time.Now()
	if v.identity, err = createIdentity(guest, cfg.Domain); err != nil {
		return nil, err
	}
	v.timings.IdentityCreation = time.Since(t0)

	// Start services: each start reads the binary through dm-verity,
	// streamed, since nothing here keeps it.
	t0 = time.Now()
	svcJSON, err := v.fs.ReadFile(imagebuild.ServicesPath)
	if err != nil {
		return nil, fmt.Errorf("vm: read services manifest: %w", err)
	}
	if err := json.Unmarshal(svcJSON, &v.services); err != nil {
		return nil, fmt.Errorf("vm: parse services manifest: %w", err)
	}
	for _, svc := range v.services {
		bin, err := v.fs.Open("usr/bin/" + svc.Name)
		if err == nil {
			_, err = bin.WriteTo(io.Discard)
		}
		if err != nil {
			return nil, fmt.Errorf("vm: start service %q: %w", svc.Name, err)
		}
	}
	v.timings.ServiceStartup = time.Since(t0)

	v.timings.Total = time.Since(start)
	return v, nil
}

func parseRootHash(cmdline string) (m [dmverity.DigestSize]byte, err error) {
	for _, field := range strings.Fields(cmdline) {
		if val, ok := strings.CutPrefix(field, "verity_roothash="); ok {
			raw, err := hex.DecodeString(val)
			if err != nil || len(raw) != dmverity.DigestSize {
				return m, fmt.Errorf("%w: malformed hash %q", ErrNoRootHash, val)
			}
			copy(m[:], raw)
			return m, nil
		}
	}
	return m, ErrNoRootHash
}

func createIdentity(guest *hypervisor.Guest, domain string) (*Identity, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("vm: generate identity key: %w", err)
	}
	csrDER, err := x509.CreateCertificateRequest(rand.Reader, &x509.CertificateRequest{
		Subject:  pkix.Name{CommonName: domain, Organization: []string{"Revelio"}},
		DNSNames: []string{domain},
	}, key)
	if err != nil {
		return nil, fmt.Errorf("vm: create csr: %w", err)
	}
	csrReport, err := guest.Channel.Report(sev.HashOf(csrDER))
	if err != nil {
		return nil, fmt.Errorf("vm: csr report: %w", err)
	}
	return &Identity{Key: key, CSRDER: csrDER, CSRReport: csrReport}, nil
}

// FS exposes the mounted, verity-protected rootfs.
func (v *VM) FS() *rootfs.FS { return v.fs }

// Persist exposes the decrypted persistent volume.
func (v *VM) Persist() *dmcrypt.Device { return v.persist }

// Firewall exposes the compiled network policy.
func (v *VM) Firewall() *netguard.Firewall { return v.firewall }

// Identity exposes the VM's TLS identity and its attestation evidence.
func (v *VM) Identity() *Identity { return v.identity }

// Timings exposes the boot-time decomposition.
func (v *VM) Timings() BootTimings { return v.timings }

// Measurement returns the launch measurement this VM booted under.
func (v *VM) Measurement() measure.Measurement { return v.measurement }

// Domain returns the web domain the VM serves.
func (v *VM) Domain() string { return v.domain }

// Services returns the image's service manifest.
func (v *VM) Services() []imagebuild.ServiceSpec {
	out := make([]imagebuild.ServiceSpec, len(v.services))
	copy(out, v.services)
	return out
}

// Report asks the AMD-SP for a fresh attestation report with the given
// REPORT_DATA.
func (v *VM) Report(data sev.ReportData) (*sev.Report, error) {
	return v.channel.Channel.Report(data)
}
