package rootfs

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"testing"
	"testing/quick"

	"revelio/internal/blockdev"
	"revelio/internal/dmverity"
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

// TestOpenReadsWhatReadFileReads: Open's ReadAt and WriteTo hand out the
// bytes ReadFile does, at any offset and across chunk boundaries, with
// io.ReaderAt's end-of-file contract.
func TestOpenReadsWhatReadFileReads(t *testing.T) {
	big := make([]byte, 3*streamChunk+777)
	for i := range big {
		big[i] = byte(i * 7)
	}
	files := append(sampleFiles(), File{Path: "usr/bin/big", Content: big, Mode: 0o755})
	fsys := mountArchive(t, files)
	for _, f := range files {
		r, err := fsys.Open(f.Path)
		if err != nil {
			t.Fatalf("Open(%q): %v", f.Path, err)
		}
		var streamed bytes.Buffer
		if n, err := r.WriteTo(&streamed); err != nil || n != int64(len(f.Content)) || !bytes.Equal(streamed.Bytes(), f.Content) {
			t.Errorf("%s: WriteTo = %d, %v; contents equal: %v", f.Path, n, err, bytes.Equal(streamed.Bytes(), f.Content))
		}
		got, err := io.ReadAll(io.NewSectionReader(r, 0, int64(len(f.Content))))
		if err != nil || !bytes.Equal(got, f.Content) {
			t.Errorf("%s: ReadAt through a SectionReader: %v; contents equal: %v", f.Path, err, bytes.Equal(got, f.Content))
		}
	}

	r, err := fsys.Open("usr/bin/big")
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 1000)
	if n, err := r.ReadAt(p, streamChunk-500); n != len(p) || err != nil || !bytes.Equal(p, big[streamChunk-500:streamChunk+500]) {
		t.Errorf("ReadAt across a chunk boundary: %d, %v", n, err)
	}
	if n, err := r.ReadAt(p, int64(len(big))-10); n != 10 || err != io.EOF || !bytes.Equal(p[:10], big[len(big)-10:]) {
		t.Errorf("ReadAt over the end: %d, %v; want 10, io.EOF", n, err)
	}
	if n, err := r.ReadAt(p, int64(len(big))); n != 0 || err != io.EOF {
		t.Errorf("ReadAt at the end: %d, %v; want 0, io.EOF", n, err)
	}
	if _, err := r.ReadAt(p, -1); err == nil || err == io.EOF {
		t.Errorf("ReadAt at a negative offset: %v", err)
	}
	if _, err := fsys.Open("no/such/file"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Open(missing): %v, want fs.ErrNotExist", err)
	}
}

// TestTamperedBlockFailsEveryRead: a data block flipped after the image
// is mounted fails ReadFile, Open's ReadAt and its WriteTo alike, with
// dm-verity's *MismatchError, and never hands out a byte of it.
func TestTamperedBlockFailsEveryRead(t *testing.T) {
	content := bytes.Repeat([]byte{0x5A}, 4*BlockSize)
	archive, err := Build([]File{{Path: "usr/bin/svc", Content: content, Mode: 0o755}})
	if err != nil {
		t.Fatal(err)
	}
	data := blockdev.NewMemFrom(archive)
	hashes, meta, err := dmverity.Format(data, dmverity.Params{BlockSize: BlockSize})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := dmverity.Open(data, hashes, meta, meta.RootHash)
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.FlipBit(2*BlockSize+100, 3); err != nil { // inside the file, past what Mount reads
		t.Fatal(err)
	}
	r, err := fsys.Open("usr/bin/svc")
	if err != nil {
		t.Fatal(err)
	}
	var mismatch *dmverity.MismatchError
	if _, err := fsys.ReadFile("usr/bin/svc"); !errors.As(err, &mismatch) {
		t.Errorf("ReadFile: %v, want *dmverity.MismatchError", err)
	}
	if _, err := r.ReadAt(make([]byte, 10), 2*BlockSize); !errors.As(err, &mismatch) {
		t.Errorf("ReadAt: %v, want *dmverity.MismatchError", err)
	}
	var streamed bytes.Buffer
	if _, err := r.WriteTo(&streamed); !errors.As(err, &mismatch) {
		t.Errorf("WriteTo: %v, want *dmverity.MismatchError", err)
	}
	if streamed.Len() != 0 {
		t.Errorf("WriteTo handed out %d bytes of a tampered read", streamed.Len())
	}
}
