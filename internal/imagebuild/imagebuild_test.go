package imagebuild

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"revelio/internal/blockdev"
	"revelio/internal/dmverity"
	"revelio/internal/netguard"
	"revelio/internal/rootfs"
)

func testSpec(reg *Registry) Spec {
	base := PublishUbuntuBase(reg)
	return Spec{
		Name:          "test-image",
		Version:       "0.1.0",
		KernelVersion: "5.17",
		Base:          base,
		Services: []ServiceSpec{
			{Name: "app", Kind: KindApp, BinarySize: 4096},
			{Name: "revelio-identity", Kind: KindRevelio, BinarySize: 1024},
		},
		Policy:      netguard.DefaultWebPolicy(),
		PersistSize: 64 * 1024,
		VeritySalt:  []byte("salt"),
	}
}

func TestBuildReproducible(t *testing.T) {
	reg := NewRegistry()
	spec := testSpec(reg)
	b := NewBuilder(reg)
	img1, err := b.Build(spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	img2, err := NewBuilder(reg).Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img1.Kernel, img2.Kernel) ||
		!bytes.Equal(img1.Initrd, img2.Initrd) ||
		img1.Cmdline != img2.Cmdline {
		t.Error("boot blobs differ across builds")
	}
	if img1.RootHash != img2.RootHash {
		t.Error("root hash differs across builds")
	}
	if !bytes.Equal(img1.Disk.Snapshot(), img2.Disk.Snapshot()) {
		t.Error("disk images differ across builds")
	}
	if img1.Table.DiskUUID != img2.Table.DiskUUID {
		t.Error("disk UUIDs differ across builds")
	}
}

func TestNonHermeticBuildDiverges(t *testing.T) {
	reg := NewRegistry()
	spec := testSpec(reg)
	b := NewNonHermeticBuilder(reg)
	fakeClock := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	b.now = func() time.Time {
		fakeClock = fakeClock.Add(time.Second)
		return fakeClock
	}
	img1, err := b.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := b.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if img1.RootHash == img2.RootHash {
		t.Error("non-hermetic builds unexpectedly reproducible")
	}
}

func TestVersionChangesRootHash(t *testing.T) {
	reg := NewRegistry()
	spec := testSpec(reg)
	b := NewBuilder(reg)
	img1, err := b.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Version = "0.2.0"
	img2, err := b.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if img1.RootHash == img2.RootHash {
		t.Error("version bump did not change root hash")
	}
	if img1.Table.DiskUUID == img2.Table.DiskUUID {
		t.Error("version bump did not change disk UUID")
	}
}

func TestCmdlineCarriesRootHash(t *testing.T) {
	reg := NewRegistry()
	img, err := NewBuilder(reg).Build(testSpec(reg))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(img.Cmdline, "verity_roothash=") {
		t.Fatalf("cmdline %q lacks root hash", img.Cmdline)
	}
	// Extract and compare.
	for _, f := range strings.Fields(img.Cmdline) {
		if v, ok := strings.CutPrefix(f, "verity_roothash="); ok {
			want := img.RootHash
			m, err := dmverity.Metadata{}, error(nil)
			_ = m
			_ = err
			if len(v) != len(want)*2 {
				t.Errorf("root hash hex length %d", len(v))
			}
		}
	}
}

func TestBuiltDiskVerifiesUnderVerity(t *testing.T) {
	reg := NewRegistry()
	img, err := NewBuilder(reg).Build(testSpec(reg))
	if err != nil {
		t.Fatal(err)
	}
	rootPart, err := blockdev.NewLinear(img.Disk, img.Table.RootfsStart, img.Table.RootfsLen)
	if err != nil {
		t.Fatal(err)
	}
	hashPart, err := blockdev.NewLinear(img.Disk, img.Table.HashStart, img.Table.HashLen)
	if err != nil {
		t.Fatal(err)
	}
	super := make([]byte, rootfs.BlockSize)
	if err := hashPart.ReadAt(super, 0); err != nil {
		t.Fatal(err)
	}
	var meta dmverity.Metadata
	if err := meta.UnmarshalBinary(super); err != nil {
		t.Fatalf("superblock: %v", err)
	}
	if meta.RootHash != img.RootHash {
		t.Error("superblock root hash differs from image root hash")
	}
	treeDev, err := blockdev.NewLinear(hashPart, rootfs.BlockSize, hashPart.Size()-rootfs.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := dmverity.Open(rootPart, treeDev, &meta, img.RootHash)
	if err != nil {
		t.Fatalf("verity open: %v", err)
	}
	if err := dev.VerifyAll(); err != nil {
		t.Errorf("VerifyAll: %v", err)
	}
	// The archive mounts and contains the generated artifacts.
	fsys, err := rootfs.Mount(dev)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	for _, path := range []string{PolicyPath, ServicesPath, ReleasePath, "usr/bin/app", "lib/libc.so"} {
		if _, err := fsys.ReadFile(path); err != nil {
			t.Errorf("missing %q: %v", path, err)
		}
	}
}

func TestRegistryDigestPinning(t *testing.T) {
	reg := NewRegistry()
	spec := testSpec(reg)
	// Supply-chain attack: the registry content changes after pinning.
	reg.Tamper(spec.Base.Name, []rootfs.File{
		{Path: "lib/libc.so", Content: []byte("backdoored"), Mode: 0o644},
	})
	if _, err := NewBuilder(reg).Build(spec); !errors.Is(err, ErrDigestMismatch) {
		t.Errorf("tampered base image: err = %v, want ErrDigestMismatch", err)
	}
}

func TestUnknownBaseImage(t *testing.T) {
	reg := NewRegistry()
	spec := testSpec(reg)
	spec.Base.Name = "nope"
	if _, err := NewBuilder(reg).Build(spec); !errors.Is(err, ErrUnknownBaseImage) {
		t.Errorf("err = %v, want ErrUnknownBaseImage", err)
	}
}

func TestSpecValidation(t *testing.T) {
	reg := NewRegistry()
	good := testSpec(reg)

	noName := good
	noName.Name = ""
	if _, err := NewBuilder(reg).Build(noName); err == nil {
		t.Error("empty name accepted")
	}

	badPersist := good
	badPersist.PersistSize = 0
	if _, err := NewBuilder(reg).Build(badPersist); err == nil {
		t.Error("zero persist size accepted")
	}

	badSvc := good
	badSvc.Services = []ServiceSpec{{Name: "", BinarySize: 10}}
	if _, err := NewBuilder(reg).Build(badSvc); err == nil {
		t.Error("unnamed service accepted")
	}

	dupSvc := good
	dupSvc.Services = []ServiceSpec{
		{Name: "a", BinarySize: 10}, {Name: "a", BinarySize: 10},
	}
	if _, err := NewBuilder(reg).Build(dupSvc); err == nil {
		t.Error("duplicate service accepted")
	}
}

func TestProfilesBuild(t *testing.T) {
	reg := NewRegistry()
	base := PublishUbuntuBase(reg)
	b := NewBuilder(reg)
	bn, err := b.Build(BoundaryNodeSpec(base))
	if err != nil {
		t.Fatalf("BN build: %v", err)
	}
	cp, err := b.Build(CryptpadSpec(base))
	if err != nil {
		t.Fatalf("CP build: %v", err)
	}
	if bn.RootHash == cp.RootHash {
		t.Error("BN and CP images share a root hash")
	}
	// BN carries more services and a bigger rootfs (paper's boot-time
	// asymmetry).
	if bn.Table.RootfsLen <= cp.Table.RootfsLen {
		t.Error("BN rootfs not larger than CP rootfs")
	}
}

func TestManifestMatchesArtifacts(t *testing.T) {
	reg := NewRegistry()
	img, err := NewBuilder(reg).Build(testSpec(reg))
	if err != nil {
		t.Fatal(err)
	}
	if img.Manifest.RootHash != img.RootHash {
		t.Error("manifest root hash mismatch")
	}
	if img.Manifest.Name != "test-image" || img.Manifest.Version != "0.1.0" {
		t.Error("manifest identity mismatch")
	}
}

// deterministicBlob's bytes do not depend on how many workers made
// them: every size around a block edge, at 1 to 5 workers, against the
// one-block-at-a-time definition.
func TestDeterministicBlobAnyWorkerCount(t *testing.T) {
	serial := func(seed string, size int) []byte {
		var out []byte
		for i := uint64(0); len(out) < size; i++ {
			var c [8]byte
			binary.LittleEndian.PutUint64(c[:], i)
			sum := sha256.Sum256(append([]byte(seed), c[:]...))
			out = append(out, sum[:]...)
		}
		return out[:size]
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for procs := 1; procs <= 5; procs++ {
		runtime.GOMAXPROCS(procs)
		for _, size := range []int{1, 31, 32, 33, 95, 96, 97, 4096, 48*kib + 7} {
			if got := deterministicBlob("seed/svc", size); !bytes.Equal(got, serial("seed/svc", size)) {
				t.Errorf("GOMAXPROCS=%d size %d: bytes differ from the serial definition", procs, size)
			}
		}
	}
}

// BenchmarkBuild is the image build a deployment does once at stand-up:
// publish the pinned base, then build the CryptPad profile on it.
func BenchmarkBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg := NewRegistry()
		if _, err := NewBuilder(reg).Build(CryptpadSpec(PublishUbuntuBase(reg))); err != nil {
			b.Fatal(err)
		}
	}
}
