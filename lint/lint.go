// Package lint is the public face of revelio's custom static-analysis
// suite: the standing invariants DESIGN.md states in prose — the
// fail-closed error taxonomy, deterministic time/rand seams, the
// context-first lifecycle, sync.Pool scratch discipline, and mutex
// guard annotations — mechanized as go/analysis-style analyzers.
// cmd/revelio-lint is the CLI over this package; the analyzers, the
// package loader and the driver live in revelio/internal/lint. See
// DESIGN.md's "Static analysis" for the invariant table, the
// //revelio:allow suppression policy, and the recipe for adding an
// analyzer.
package lint

import (
	"os"

	"revelio/internal/lint"
)

// Main runs the revelio-lint command line over the given package
// patterns and returns the process exit code: 0 clean, 1 findings,
// 2 usage or load failure.
func Main(args []string, stdout, stderr *os.File) int {
	return lint.Main(args, stdout, stderr)
}
