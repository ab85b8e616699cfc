// Package lint is revelio's custom static-analysis suite: the standing
// invariants DESIGN.md states in prose, mechanized as analyzers so CI
// enforces them the way staticcheck enforces generic Go hygiene.
//
// The five analyzers and the invariants they pin:
//
//	taxonomy   — errors on verification paths wrap the attestation
//	             sentinel taxonomy with %w, so errors.Is works across
//	             layers and callers can fail closed on the class.
//	timeseam   — no naked time.Now/Sleep/After or math/rand in the
//	             seam-governed packages (chaos, gateway, fleet);
//	             wall-clock reads must flow through the injected
//	             clock/rand seams or seeded schedules stop replaying
//	             byte for byte.
//	ctxfirst   — context-first lifecycle: exported functions take ctx
//	             as the first parameter, library code below the SDK
//	             facade never mints context.Background, and a held ctx
//	             must reach the blocking call.
//	poolescape — a buffer from a sync.Pool is Put on every return path
//	             and never escapes by return, store, or channel send.
//	lockguard  — fields annotated `// guarded by <mu>` are only touched
//	             with that mutex held, and no lock is held across a
//	             network call or blocking channel send.
//
// Suppressions use `//revelio:allow <analyzer> <reason>` and are
// audited: unexplained, unknown, and stale directives are themselves
// diagnostics (pseudo-analyzer "allow"). See DESIGN.md "Static
// analysis" for the invariant table and the recipe for adding a sixth
// analyzer.
package lint

import (
	"fmt"
	"go/token"
	"sort"

	"revelio/internal/lint/analysis"
	"revelio/internal/lint/load"
)

// Suite returns the full analyzer suite in stable order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{Taxonomy, Timeseam, CtxFirst, PoolEscape, LockGuard}
}

// Select resolves analyzer names against the suite; empty names means
// the whole suite.
func Select(names []string) ([]*analysis.Analyzer, error) {
	all := Suite()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var sel []*analysis.Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		sel = append(sel, a)
	}
	return sel, nil
}

// Finding is one diagnostic after suppression filtering, resolved to a
// concrete source position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Run applies the analyzers to one loaded package, filters the result
// through the package's //revelio:allow directives, audits those
// directives, and returns the surviving findings in source order.
//
// Test files are out of scope: the invariants govern production code, and
// tests legitimately sleep, mint root contexts, and poke guarded fields.
// The loader never hands them over (`go list`'s GoFiles excludes them).
func Run(pkg *load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var findings []Finding
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			findings = append(findings, Finding{Analyzer: name, Pos: d.Position(pkg.Fset), Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}

	known := make(map[string]bool)
	for _, a := range Suite() {
		known[a.Name] = true
	}
	findings = applySuppressions(pkg.Fset, pkg.Files, known, ran, findings)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
