package lint

import (
	"os"
	"strings"
	"testing"
)

// capture runs the CLI with stdout/stderr redirected to temp files and
// returns the exit code plus both streams.
func capture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	mk := func(name string) *os.File {
		f, err := os.CreateTemp(t.TempDir(), name)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	stdout, stderr := mk("stdout"), mk("stderr")
	code := Main(args, stdout, stderr)
	read := func(f *os.File) string {
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
		return string(data)
	}
	return code, read(stdout), read(stderr)
}

func TestListFlag(t *testing.T) {
	code, out, _ := capture(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, a := range Suite() {
		if !strings.Contains(out, a.Name) {
			t.Errorf("-list output missing analyzer %s", a.Name)
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	code, _, errOut := capture(t, "-run", "nosuch", "./...")
	if code != 2 {
		t.Fatalf("unknown analyzer exited %d, want 2", code)
	}
	if !strings.Contains(errOut, "nosuch") {
		t.Errorf("stderr %q does not name the bad analyzer", errOut)
	}
}

// TestLintPackageClean is satellite coverage for "the suite is clean on
// itself": the CLI over internal/lint and this command.
func TestLintPackageClean(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list -export")
	}
	code, out, errOut := capture(t, "./internal/lint/...", "./lint/...", "./cmd/revelio-lint/...")
	if code != 0 {
		t.Fatalf("revelio-lint on its own packages exited %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}
