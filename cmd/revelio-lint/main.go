// Command revelio-lint is the multichecker for revelio's custom
// analyzer suite (revelio/lint): the repo's standing invariants —
// fail-closed error taxonomy, deterministic time/rand seams, the
// context-first lifecycle, sync.Pool scratch discipline, and mutex
// guard annotations — mechanized so CI enforces them.
//
// Usage:
//
//	revelio-lint [-run name,name] [-list] packages...
//
// It loads packages itself (via `go list -export`) and prints every
// finding as file:line:col: [analyzer] message, exiting 1 when any
// survive suppression.
//
// Suppressions: //revelio:allow <analyzer> <reason> on the offending
// line or the line above. Unexplained, unknown, and stale directives
// are diagnostics themselves — see DESIGN.md "Static analysis".
package main

import (
	"os"

	"revelio/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
