// Package imagebuild is Revelio's reproducible image builder (§5.1.1).
//
// It turns a declarative Spec into the complete set of direct-boot
// artifacts: kernel blob, initrd, kernel command line (carrying the
// dm-verity root hash), and a partitioned disk holding the verity-
// protected rootfs, the integrity metadata, and the to-be-encrypted
// persistent volume.
//
// Reproducibility is the design center: every build of the same Spec is
// bit-identical — file ordering is canonicalized, timestamps are squashed
// to a fixed epoch, partition UUIDs are derived from content, and package
// content comes from pinned, digest-verified base images rather than a
// live package manager. The deliberately non-hermetic builder variant
// demonstrates what goes wrong otherwise.
package imagebuild

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"revelio/internal/blockdev"
	"revelio/internal/dmverity"
	"revelio/internal/netguard"
	"revelio/internal/par"
	"revelio/internal/rootfs"
)

const (
	// PolicyPath is where the network policy lives in the rootfs.
	PolicyPath = "etc/revelio/network-policy.json"
	// ServicesPath lists the services init starts, in order.
	ServicesPath = "etc/revelio/services.json"
	// ReleasePath carries name/version, the stand-in for /etc/os-release.
	ReleasePath = "etc/os-release"

	// fixedEpoch is the squashed timestamp written wherever a build time
	// would otherwise leak in.
	fixedEpoch = 1672531200 // 2023-01-01T00:00:00Z

	persistAlign = 512
)

var (
	// ErrDigestMismatch reports a base image whose content hash does not
	// match the pinned digest (supply-chain defence).
	ErrDigestMismatch = errors.New("imagebuild: base image digest mismatch")
	// ErrUnknownBaseImage reports a base image the registry does not hold.
	ErrUnknownBaseImage = errors.New("imagebuild: unknown base image")
)

// ServiceKind classifies services for the boot-latency accounting of
// Table 1.
type ServiceKind string

// Service kinds.
const (
	KindSystem  ServiceKind = "system"  // ordinary boot services
	KindApp     ServiceKind = "app"     // the workload (nginx, cryptpad, ic-proxy)
	KindRevelio ServiceKind = "revelio" // Revelio-added services, measured separately
)

// ServiceSpec declares one guest service. BinarySize controls the size of
// the generated /usr/bin binary, which the guest reads through dm-verity
// when it starts the service — so bigger services genuinely cost more
// boot time, as on the paper's Boundary Node.
type ServiceSpec struct {
	Name       string      `json:"name"`
	Kind       ServiceKind `json:"kind"`
	BinarySize int         `json:"binarySize"`
}

// BaseImageRef pins a published base image by name and content digest,
// replacing live apt-get/dnf with the paper's two-stage pulled-image
// scheme.
type BaseImageRef struct {
	Name   string
	Digest [sha256.Size]byte
}

// BaseImage is a published package set in the registry.
type BaseImage struct {
	Name  string
	Files []rootfs.File
}

// Digest computes the content digest of the base image.
func (b BaseImage) Digest() [sha256.Size]byte {
	paths := make([]string, 0, len(b.Files))
	byPath := make(map[string]rootfs.File, len(b.Files))
	for _, f := range b.Files {
		paths = append(paths, f.Path)
		byPath[f.Path] = f
	}
	sort.Strings(paths)
	h := sha256.New()
	h.Write([]byte(b.Name))
	for _, p := range paths {
		f := byPath[p]
		h.Write([]byte(p))
		_ = binary.Write(h, binary.LittleEndian, f.Mode)
		_ = binary.Write(h, binary.LittleEndian, uint64(len(f.Content)))
		h.Write(f.Content)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// Registry is the published-image registry (the trusted, integrity-
// protected Docker registry of §5.1.1).
type Registry struct {
	images map[string]BaseImage
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{images: make(map[string]BaseImage)}
}

// Publish stores an image and returns its pinned reference.
func (r *Registry) Publish(img BaseImage) BaseImageRef {
	r.images[img.Name] = img
	return BaseImageRef{Name: img.Name, Digest: img.Digest()}
}

// Pull fetches an image and verifies it against the pinned digest.
func (r *Registry) Pull(ref BaseImageRef) (BaseImage, error) {
	img, ok := r.images[ref.Name]
	if !ok {
		return BaseImage{}, fmt.Errorf("%w: %q", ErrUnknownBaseImage, ref.Name)
	}
	if img.Digest() != ref.Digest {
		return BaseImage{}, fmt.Errorf("%w: %q", ErrDigestMismatch, ref.Name)
	}
	return img, nil
}

// Tamper replaces a published image's content without updating consumers'
// pinned digests — the supply-chain attack Pull must catch.
func (r *Registry) Tamper(name string, files []rootfs.File) {
	r.images[name] = BaseImage{Name: name, Files: files}
}

// Spec declares everything that goes into a Revelio image.
type Spec struct {
	Name          string
	Version       string
	KernelVersion string
	Base          BaseImageRef
	Services      []ServiceSpec
	ExtraFiles    []rootfs.File
	Policy        netguard.Policy
	// PersistSize is the byte size of the encrypted persistent volume
	// (84 MiB on the paper's nodes; scaled down in tests).
	PersistSize int64
	// VeritySalt feeds the dm-verity tree.
	VeritySalt []byte
}

// PartitionTable locates the three partitions on the disk.
type PartitionTable struct {
	RootfsStart, RootfsLen   int64
	HashStart, HashLen       int64
	PersistStart, PersistLen int64
	// DiskUUID is derived from content, not a random generator, to keep
	// builds reproducible.
	DiskUUID [16]byte
}

// Image is a finished build.
type Image struct {
	Kernel  []byte
	Initrd  []byte
	Cmdline string
	Disk    *blockdev.Mem
	Table   PartitionTable
	// RootHash is the dm-verity root hash, also embedded in Cmdline.
	RootHash [dmverity.DigestSize]byte
	// Manifest records component digests for audits.
	Manifest Manifest
}

// Manifest holds the digests an auditor reproduces.
type Manifest struct {
	Name, Version string
	KernelSHA256  [sha256.Size]byte
	InitrdSHA256  [sha256.Size]byte
	CmdlineSHA256 [sha256.Size]byte
	RootfsSHA256  [sha256.Size]byte
	RootHash      [dmverity.DigestSize]byte
}

// Builder builds images against a registry.
type Builder struct {
	registry *Registry

	// nonHermetic simulates an unfixed build environment: wall-clock
	// timestamps and build paths leak into the image, breaking
	// reproducibility. Used only by tests and the ablation bench.
	nonHermetic bool
	now         func() time.Time
}

// NewBuilder creates a hermetic builder.
func NewBuilder(reg *Registry) *Builder {
	return &Builder{registry: reg, now: time.Now}
}

// NewNonHermeticBuilder creates a builder with deliberate nondeterminism,
// demonstrating the failure mode §3.4.1 designs against.
func NewNonHermeticBuilder(reg *Registry) *Builder {
	return &Builder{registry: reg, nonHermetic: true, now: time.Now}
}

// deterministicBlob generates service binary content from a seed so the
// same spec always yields the same bytes: output block i is
// SHA-256(seed || i as 8 little-endian bytes). Each block depends only on
// its counter, so the counter range is split over GOMAXPROCS workers,
// each writing its own blocks with one reused hash state; the bytes are
// identical at any worker count.
func deterministicBlob(seed string, size int) []byte {
	blocks := (size + sha256.Size - 1) / sha256.Size
	out := make([]byte, blocks*sha256.Size)
	workers := min(runtime.GOMAXPROCS(0), blocks)
	_ = par.Each(workers, func(w int) error {
		h, s := sha256.New(), []byte(seed)
		var c [8]byte
		for i := w * blocks / workers; i < (w+1)*blocks/workers; i++ {
			h.Reset()
			h.Write(s)
			binary.LittleEndian.PutUint64(c[:], uint64(i))
			h.Write(c[:])
			h.Sum(out[i*sha256.Size : i*sha256.Size])
		}
		return nil
	})
	return out[:size]
}

// Build produces the image for spec. Hermetic builds of equal specs are
// bit-identical.
func (b *Builder) Build(spec Spec) (*Image, error) {
	if spec.Name == "" || spec.Version == "" {
		return nil, errors.New("imagebuild: spec needs name and version")
	}
	if spec.PersistSize <= 0 || spec.PersistSize%persistAlign != 0 {
		return nil, fmt.Errorf("imagebuild: persist size %d must be a positive multiple of %d",
			spec.PersistSize, persistAlign)
	}
	base, err := b.registry.Pull(spec.Base)
	if err != nil {
		return nil, err
	}

	// Stage 2 of the two-stage build: copy base files plus generated
	// artifacts into the final tree. Stage 1 (building the base) happened
	// when the base image was published.
	files := make([]rootfs.File, 0, len(base.Files)+len(spec.ExtraFiles)+len(spec.Services)+4)
	files = append(files, base.Files...)
	files = append(files, spec.ExtraFiles...)

	for _, svc := range spec.Services {
		if svc.Name == "" || svc.BinarySize <= 0 {
			return nil, fmt.Errorf("imagebuild: bad service spec %+v", svc)
		}
		files = append(files, rootfs.File{
			Path:    "usr/bin/" + svc.Name,
			Content: deterministicBlob(spec.Name+"/"+spec.Version+"/"+svc.Name, svc.BinarySize),
			Mode:    0o755,
		})
	}

	policyBytes, err := spec.Policy.Marshal()
	if err != nil {
		return nil, err
	}
	files = append(files, rootfs.File{Path: PolicyPath, Content: policyBytes, Mode: 0o644})

	servicesJSON, err := marshalServices(spec.Services)
	if err != nil {
		return nil, err
	}
	files = append(files, rootfs.File{Path: ServicesPath, Content: servicesJSON, Mode: 0o644})

	release := fmt.Sprintf("NAME=%s\nVERSION=%s\nBUILD_TIME=%d\n", spec.Name, spec.Version, int64(fixedEpoch))
	if b.nonHermetic {
		// The classic reproducibility bugs: wall-clock build time and
		// absolute build paths baked into the artifact.
		release = fmt.Sprintf("NAME=%s\nVERSION=%s\nBUILD_TIME=%d\nBUILD_PATH=/tmp/build-%d\n",
			spec.Name, spec.Version, b.now().UnixNano(), b.now().UnixNano()%1000)
	}
	files = append(files, rootfs.File{Path: ReleasePath, Content: []byte(release), Mode: 0o644})

	archive, err := rootfs.Build(files)
	if err != nil {
		return nil, fmt.Errorf("imagebuild: build rootfs: %w", err)
	}

	// dm-verity over the rootfs archive.
	dataDev := blockdev.NewMemFrom(archive)
	hashDev, meta, err := dmverity.Format(dataDev, dmverity.Params{
		BlockSize: dmverity.DefaultBlockSize,
		Salt:      spec.VeritySalt,
	})
	if err != nil {
		return nil, fmt.Errorf("imagebuild: verity format: %w", err)
	}
	metaBytes, err := meta.MarshalBinary()
	if err != nil {
		return nil, err
	}
	if len(metaBytes) > rootfs.BlockSize {
		return nil, fmt.Errorf("imagebuild: verity metadata %d bytes exceeds superblock", len(metaBytes))
	}

	// Partition layout: [rootfs][verity superblock + tree][persist].
	hashPartLen := int64(rootfs.BlockSize) + hashDev.Size()
	table := PartitionTable{
		RootfsStart: 0,
		RootfsLen:   int64(len(archive)),
	}
	table.HashStart = table.RootfsStart + table.RootfsLen
	table.HashLen = hashPartLen
	table.PersistStart = table.HashStart + table.HashLen
	table.PersistLen = spec.PersistSize

	disk := blockdev.NewMem(table.PersistStart + table.PersistLen)
	if err := disk.WriteAt(archive, table.RootfsStart); err != nil {
		return nil, err
	}
	super := make([]byte, rootfs.BlockSize)
	copy(super, metaBytes)
	if err := disk.WriteAt(super, table.HashStart); err != nil {
		return nil, err
	}
	if err := disk.WriteAt(hashDev.Snapshot(), table.HashStart+int64(rootfs.BlockSize)); err != nil {
		return nil, err
	}

	// Content-derived disk UUID keeps the build reproducible while still
	// giving each image version a unique identifier.
	uuidSeed := sha256.Sum256(append([]byte(spec.Name+spec.Version), meta.RootHash[:]...))
	copy(table.DiskUUID[:], uuidSeed[:16])

	kernel := []byte(fmt.Sprintf("revelio-kernel/%s/snp=on/epoch=%d", spec.KernelVersion, int64(fixedEpoch)))
	initrd := buildInitrd(spec)
	cmdline := fmt.Sprintf(
		"console=ttyS0 ro root=verity verity_roothash=%s verity_meta=part2 persist=part3 policy=%s",
		hex.EncodeToString(meta.RootHash[:]), PolicyPath)

	img := &Image{
		Kernel:   kernel,
		Initrd:   initrd,
		Cmdline:  cmdline,
		Disk:     disk,
		Table:    table,
		RootHash: meta.RootHash,
		Manifest: Manifest{
			Name:          spec.Name,
			Version:       spec.Version,
			KernelSHA256:  sha256.Sum256(kernel),
			InitrdSHA256:  sha256.Sum256(initrd),
			CmdlineSHA256: sha256.Sum256([]byte(cmdline)),
			RootfsSHA256:  sha256.Sum256(archive),
			RootHash:      meta.RootHash,
		},
	}
	return img, nil
}

func buildInitrd(spec Spec) []byte {
	// The initrd carries the early userspace that sets up dm-verity and
	// dm-crypt; its content encodes that behaviour so disabling either
	// necessarily changes the measured bytes.
	var sb strings.Builder
	sb.WriteString("revelio-initrd/v1\n")
	sb.WriteString("feature:verity-setup\n")
	sb.WriteString("feature:crypt-setup\n")
	sb.WriteString("feature:netguard\n")
	fmt.Fprintf(&sb, "image:%s/%s\n", spec.Name, spec.Version)
	return []byte(sb.String())
}

func marshalServices(svcs []ServiceSpec) ([]byte, error) {
	// Deterministic order: as declared. Validate names are unique.
	seen := make(map[string]struct{}, len(svcs))
	for _, s := range svcs {
		if _, dup := seen[s.Name]; dup {
			return nil, fmt.Errorf("imagebuild: duplicate service %q", s.Name)
		}
		seen[s.Name] = struct{}{}
	}
	return marshalJSON(svcs)
}
