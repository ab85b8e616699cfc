package rootfs

import (
	"bytes"
	"errors"
	"io/fs"
	"testing"
	"testing/quick"

	"revelio/internal/blockdev"
)

func sampleFiles() []File {
	return []File{
		{Path: "usr/bin/nginx", Content: bytes.Repeat([]byte{0xAB}, 9000), Mode: 0o755},
		{Path: "etc/config.json", Content: []byte(`{"k":"v"}`), Mode: 0o644},
		{Path: "etc/empty", Content: nil, Mode: 0o600},
	}
}

func mountArchive(t *testing.T, files []File) *FS {
	t.Helper()
	archive, err := Build(files)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	fsys, err := Mount(blockdev.NewMemFrom(archive))
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return fsys
}

func TestBuildMountRoundTrip(t *testing.T) {
	files := sampleFiles()
	fsys := mountArchive(t, files)
	for _, f := range files {
		got, err := fsys.ReadFile(f.Path)
		if err != nil {
			t.Errorf("ReadFile(%q): %v", f.Path, err)
			continue
		}
		if !bytes.Equal(got, f.Content) {
			t.Errorf("ReadFile(%q): wrong content", f.Path)
		}
		size, mode, err := fsys.Stat(f.Path)
		if err != nil {
			t.Errorf("Stat(%q): %v", f.Path, err)
			continue
		}
		if size != int64(len(f.Content)) || mode != f.Mode {
			t.Errorf("Stat(%q) = (%d,%o), want (%d,%o)", f.Path, size, mode, len(f.Content), f.Mode)
		}
	}
}

func TestBuildPadsToBlockSize(t *testing.T) {
	archive, err := Build(sampleFiles())
	if err != nil {
		t.Fatal(err)
	}
	if len(archive)%BlockSize != 0 {
		t.Errorf("archive length %d not a multiple of %d", len(archive), BlockSize)
	}
}

func TestBuildDeterministicRegardlessOfOrder(t *testing.T) {
	files := sampleFiles()
	a, err := Build(files)
	if err != nil {
		t.Fatal(err)
	}
	reversed := []File{files[2], files[0], files[1]}
	b, err := Build(reversed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("input order changed archive bytes")
	}
}

func TestBuildValidation(t *testing.T) {
	cases := map[string][]File{
		"empty path":    {{Path: ""}},
		"absolute path": {{Path: "/etc/passwd"}},
		"dotdot":        {{Path: "a/../b"}},
		"duplicate":     {{Path: "a", Content: []byte{1}}, {Path: "a", Content: []byte{2}}},
	}
	for name, files := range cases {
		if _, err := Build(files); err == nil {
			t.Errorf("%s: Build succeeded, want error", name)
		}
	}
}

func TestMountGarbage(t *testing.T) {
	devs := map[string]blockdev.Device{
		"zeros":   blockdev.NewMem(BlockSize),
		"tiny":    blockdev.NewMem(4),
		"garbage": blockdev.NewMemFrom(bytes.Repeat([]byte{0x5A}, BlockSize)),
	}
	for name, dev := range devs {
		if _, err := Mount(dev); !errors.Is(err, ErrBadArchive) && err == nil {
			t.Errorf("%s: Mount succeeded, want error", name)
		}
	}
}

func TestMountTruncatedArchive(t *testing.T) {
	archive, err := Build(sampleFiles())
	if err != nil {
		t.Fatal(err)
	}
	// Keep the header but cut the content area.
	if _, err := Mount(blockdev.NewMemFrom(archive[:64])); err == nil {
		t.Error("Mount of truncated archive succeeded")
	}
}

func TestReadMissingFile(t *testing.T) {
	fsys := mountArchive(t, sampleFiles())
	if _, err := fsys.ReadFile("nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("ReadFile missing: err = %v, want fs.ErrNotExist", err)
	}
	if _, _, err := fsys.Stat("nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Stat missing: err = %v, want fs.ErrNotExist", err)
	}
}

func TestListAndGlob(t *testing.T) {
	fsys := mountArchive(t, sampleFiles())
	list := fsys.List()
	if len(list) != 3 || list[0] != "etc/config.json" || list[2] != "usr/bin/nginx" {
		t.Errorf("List = %v", list)
	}
	etc := fsys.Glob("etc/")
	if len(etc) != 2 {
		t.Errorf("Glob(etc/) = %v", etc)
	}
	if got := fsys.Glob("zzz"); got != nil {
		t.Errorf("Glob(zzz) = %v, want nil", got)
	}
}

// Property: any set of distinct valid paths round-trips.
func TestRoundTripProperty(t *testing.T) {
	f := func(contents [][]byte) bool {
		if len(contents) > 20 {
			contents = contents[:20]
		}
		files := make([]File, len(contents))
		for i, c := range contents {
			files[i] = File{Path: "f/" + string(rune('a'+i)), Content: c, Mode: 0o644}
		}
		archive, err := Build(files)
		if err != nil {
			return false
		}
		fsys, err := Mount(blockdev.NewMemFrom(archive))
		if err != nil {
			return false
		}
		for _, f := range files {
			got, err := fsys.ReadFile(f.Path)
			if err != nil || !bytes.Equal(got, f.Content) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMountNeverPanics: arbitrary device contents (the rootfs partition
// is attacker-writable pre-verity) must never panic the parser.
func TestMountNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		_, _ = Mount(blockdev.NewMemFrom(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzMount feeds Mount arbitrary device contents, seeded with real
// archives and damaged copies of them. Mount must never panic, and
// whatever it accepts must be self-consistent: every listed file lies
// within the device and reads back at its stated size.
func FuzzMount(f *testing.F) {
	for _, files := range [][]File{
		nil,
		sampleFiles(),
		{{Path: "a", Content: bytes.Repeat([]byte{7}, 2*BlockSize), Mode: 0o644}},
		{{Path: "x/" + string(bytes.Repeat([]byte{'n'}, maxNameLen-2)), Content: []byte("long name")}},
	} {
		archive, err := Build(files)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(archive)
		f.Add(archive[:len(archive)/2])
		f.Add(archive[:20])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dev := blockdev.NewMemFrom(data)
		fsys, err := Mount(dev)
		if err != nil {
			if !errors.Is(err, ErrBadArchive) {
				t.Fatalf("Mount error %v is not ErrBadArchive", err)
			}
			return
		}
		for _, p := range fsys.List() {
			size, _, err := fsys.Stat(p)
			if err != nil {
				t.Fatalf("Stat(%q) of a listed file: %v", p, err)
			}
			if e := fsys.index[p]; e.off < 0 || e.off+size > dev.Size() {
				t.Fatalf("%q: content [%d,+%d) outside the %d-byte device", p, e.off, size, dev.Size())
			}
			got, err := fsys.ReadFile(p)
			if err != nil || int64(len(got)) != size {
				t.Fatalf("ReadFile(%q) = %d bytes, %v; want %d", p, len(got), err, size)
			}
		}
	})
}
