// Cross-layer integration test: the paper's core scenario as one test.
// A reproducible image is built with a dm-verity-protected rootfs and a
// dm-crypt persistent partition, launched under the hypervisor with
// measured direct boot, booted through the genuine init in internal/vm
// (which drives the parallel storage engine), and finally attested
// end-to-end against the simulated AMD KDS.
package revelio_test

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/x509"
	"errors"
	"net/http/httptest"
	"testing"

	"revelio/internal/amdsp"
	"revelio/internal/attest"
	"revelio/internal/blockdev"
	"revelio/internal/firmware"
	"revelio/internal/hypervisor"
	"revelio/internal/imagebuild"
	"revelio/internal/kds"
	"revelio/internal/sev"
	"revelio/internal/vm"
)

// stackedImage builds the dm-crypt+dm-verity stacked disk image the
// scenario boots.
func stackedImage(t *testing.T) *imagebuild.Image {
	t.Helper()
	reg := imagebuild.NewRegistry()
	base := imagebuild.PublishUbuntuBase(reg)
	spec := imagebuild.CryptpadSpec(base)
	spec.PersistSize = 256 * 1024
	img, err := imagebuild.NewBuilder(reg).Build(spec)
	if err != nil {
		t.Fatalf("build image: %v", err)
	}
	return img
}

func TestStackedImageBootsAndAttests(t *testing.T) {
	const domain = "pad.example.org"
	img := stackedImage(t)
	fw := firmware.NewOVMF("2023.05")
	blobs := hypervisor.BootBlobs{Kernel: img.Kernel, Initrd: img.Initrd, Cmdline: img.Cmdline}

	golden, err := hypervisor.ExpectedMeasurement(fw, blobs)
	if err != nil {
		t.Fatal(err)
	}
	mfr, err := amdsp.NewManufacturer([]byte("integration-test"))
	if err != nil {
		t.Fatal(err)
	}
	chip, err := mfr.MintProcessor([]byte("chip-0"), 7)
	if err != nil {
		t.Fatal(err)
	}
	guest, err := hypervisor.New(chip).Launch(hypervisor.Config{Firmware: fw, Blobs: blobs})
	if err != nil {
		t.Fatal(err)
	}

	// First boot: verity setup + full verify, dm-crypt volume creation.
	disk := blockdev.NewMemFrom(img.Disk.Snapshot())
	v, err := vm.Boot(guest, vm.BootConfig{Disk: disk, Table: img.Table, Domain: domain})
	if err != nil {
		t.Fatalf("first boot: %v", err)
	}
	if !v.Timings().FirstBoot {
		t.Error("fresh disk did not register as first boot")
	}

	// The rootfs is readable through the verified path.
	release, err := v.FS().ReadFile(imagebuild.ReleasePath)
	if err != nil || !bytes.Contains(release, []byte("NAME=")) {
		t.Fatalf("rootfs read through dm-verity: %v (%q)", err, release)
	}

	// Persistent state written through dm-crypt never hits the raw disk
	// in plaintext.
	secret := []byte("tls-private-key-material-v1")
	if err := v.Persist().WriteAt(secret, 4096); err != nil {
		t.Fatalf("persist write: %v", err)
	}
	rawDisk := make([]byte, disk.Size())
	if err := disk.ReadAt(rawDisk, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(rawDisk, secret) {
		t.Error("persistent plaintext leaked to the raw disk")
	}

	// End-to-end attestation: the VM's identity evidence verifies
	// against the KDS over HTTP, binds the identity key, and reports the
	// golden measurement.
	kdsServer := httptest.NewServer(kds.NewServer(mfr))
	t.Cleanup(kdsServer.Close)
	verifier := attest.NewVerifier(kds.NewClient(kdsServer.URL, nil), attest.NewStaticGolden(golden))

	id := v.Identity()
	res, err := verifier.VerifyReport(context.Background(), id.CSRReport)
	if err != nil {
		t.Fatalf("verify identity report: %v", err)
	}
	if res.Report.Measurement != golden {
		t.Errorf("attested measurement %s != golden %s", res.Report.Measurement, golden)
	}
	if res.Report.ReportData != sev.HashOf(id.CSRDER) {
		t.Error("identity report does not bind the CSR")
	}
	csr, err := x509.ParseCertificateRequest(id.CSRDER)
	if err != nil {
		t.Fatal(err)
	}
	if pub, ok := csr.PublicKey.(*ecdsa.PublicKey); !ok || !pub.Equal(&id.Key.PublicKey) || csr.CheckSignature() != nil {
		t.Error("attested CSR does not bind the identity public key")
	}

	// Reboot on the same chip and disk: the measurement-derived sealing
	// key unseals the existing volume and the persisted secret survives.
	guest2, err := hypervisor.New(chip).Launch(hypervisor.Config{Firmware: fw, Blobs: blobs})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := vm.Boot(guest2, vm.BootConfig{Disk: disk, Table: img.Table, Domain: domain})
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	if v2.Timings().FirstBoot {
		t.Error("reboot on an initialized disk reported first boot")
	}
	got := make([]byte, len(secret))
	if err := v2.Persist().ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Error("persisted secret did not survive the reboot")
	}
}

// TestStackedImageTamperFailsBoot flips one bit in the verity-protected
// rootfs partition: boot must fail closed during the full-verify pass.
func TestStackedImageTamperFailsBoot(t *testing.T) {
	img := stackedImage(t)
	fw := firmware.NewOVMF("2023.05")
	blobs := hypervisor.BootBlobs{Kernel: img.Kernel, Initrd: img.Initrd, Cmdline: img.Cmdline}
	mfr, err := amdsp.NewManufacturer([]byte("integration-tamper"))
	if err != nil {
		t.Fatal(err)
	}
	chip, err := mfr.MintProcessor([]byte("chip-1"), 7)
	if err != nil {
		t.Fatal(err)
	}
	guest, err := hypervisor.New(chip).Launch(hypervisor.Config{Firmware: fw, Blobs: blobs})
	if err != nil {
		t.Fatal(err)
	}
	disk := blockdev.NewMemFrom(img.Disk.Snapshot())
	// One bit, deep inside the rootfs partition.
	if err := disk.FlipBit(img.Table.RootfsStart+img.Table.RootfsLen/2, 4); err != nil {
		t.Fatal(err)
	}
	_, err = vm.Boot(guest, vm.BootConfig{Disk: disk, Table: img.Table, Domain: "pad.example.org"})
	if !errors.Is(err, vm.ErrRootfsVerification) {
		t.Errorf("boot on tampered rootfs: err = %v, want ErrRootfsVerification", err)
	}
}
