package revelio

import (
	"fmt"

	"revelio/internal/firmware"
	"revelio/internal/hypervisor"
	"revelio/internal/imagebuild"
)

// Profile selects one of the paper's service image profiles.
type Profile string

// The paper's two use-case profiles.
const (
	// ProfileCryptPad is the E2E-encrypted collaboration suite (§4.1).
	ProfileCryptPad Profile = "cryptpad"
	// ProfileBoundaryNode is the Internet Computer proxy (§4.2).
	ProfileBoundaryNode Profile = "boundary-node"
)

// DefaultFirmwareVersion is the OVMF build deployments boot unless
// overridden.
const DefaultFirmwareVersion = firmware.DefaultVersion

// buildSpec carries the image-build parameters the options mutate.
type buildSpec struct {
	profile         Profile
	name            string
	version         string
	firmwareVersion string
}

// BuildOption customizes an image build.
type BuildOption func(*buildSpec)

// BuildName overrides the image name.
func BuildName(name string) BuildOption { return func(s *buildSpec) { s.name = name } }

// BuildVersion overrides the image version — bump it for a new release
// whose measurement supersedes the old one.
func BuildVersion(version string) BuildOption { return func(s *buildSpec) { s.version = version } }

// BuildFirmware selects the OVMF build the golden measurement is
// computed against (default DefaultFirmwareVersion).
func BuildFirmware(version string) BuildOption {
	return func(s *buildSpec) { s.firmwareVersion = version }
}

// ImageBuild is a completed reproducible build: the artifacts, their
// manifest, and the golden launch measurement an auditor publishes.
type ImageBuild struct {
	// Image holds the built artifacts (kernel, initrd, cmdline, disk).
	Image *BuiltImage
	// Golden is the launch measurement under the selected firmware.
	Golden Measurement
	// FirmwareVersion is the OVMF build Golden was computed against.
	FirmwareVersion string
}

// Manifest returns the content-addressed artifact manifest.
func (b *ImageBuild) Manifest() ImageManifest { return b.Image.Manifest }

// resolveSpec turns a profile + options into an imagebuild spec against
// a fresh base-image registry (hermetic: every build pulls the same
// pinned base).
func resolveSpec(profile Profile, opts ...BuildOption) (imagebuild.Spec, *imagebuild.Registry, string, error) {
	s := buildSpec{profile: profile, firmwareVersion: DefaultFirmwareVersion}
	for _, o := range opts {
		o(&s)
	}
	reg := imagebuild.NewRegistry()
	base := imagebuild.PublishUbuntuBase(reg)
	var spec imagebuild.Spec
	switch profile {
	case ProfileCryptPad:
		spec = imagebuild.CryptpadSpec(base)
	case ProfileBoundaryNode:
		spec = imagebuild.BoundaryNodeSpec(base)
	default:
		return imagebuild.Spec{}, nil, "", fmt.Errorf("revelio: unknown profile %q", profile)
	}
	if s.name != "" {
		spec.Name = s.name
	}
	if s.version != "" {
		spec.Version = s.version
	}
	return spec, reg, s.firmwareVersion, nil
}

// BuildImage runs the reproducible build for a profile and computes the
// golden launch measurement — what the service provider deploys and
// what an independent auditor reruns from the published sources to
// verify bit-identical output (the F5 reproducibility property: equal
// Golden and Manifest values prove an identical image).
func BuildImage(profile Profile, opts ...BuildOption) (*ImageBuild, error) {
	spec, reg, fwVersion, err := resolveSpec(profile, opts...)
	if err != nil {
		return nil, err
	}
	img, err := imagebuild.NewBuilder(reg).Build(spec)
	if err != nil {
		return nil, err
	}
	golden, err := hypervisor.ExpectedMeasurement(firmware.NewOVMF(fwVersion), hypervisor.BootBlobs{
		Kernel: img.Kernel, Initrd: img.Initrd, Cmdline: img.Cmdline,
	})
	if err != nil {
		return nil, err
	}
	return &ImageBuild{Image: img, Golden: golden, FirmwareVersion: fwVersion}, nil
}
