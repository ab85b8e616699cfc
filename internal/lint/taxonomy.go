package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"revelio/internal/lint/analysis"
)

// taxonomyScope lists the verification-path packages: every error that
// crosses one of these surfaces must be %w-wrapped into the
// revelio/attestation sentinel taxonomy so errors.Is judgments (fail
// closed on ErrPolicyRejected, degrade on ErrKDSUnavailable, …) work
// across layers. A bare errors.New or a %v-formatted fmt.Errorf here
// strands the caller with string matching.
var taxonomyScope = map[string]bool{
	"revelio/attestation":     true,
	"revelio/attestation/snp": true,
	"revelio/webclient":       true,
	"revelio/internal/attest": true,
	"revelio/internal/ratls":  true,
	"revelio/internal/kds":    true,
	"revelio/internal/webext": true,
}

// Taxonomy reports sentinel-less error construction on verification
// paths: errors.New in a return statement, and fmt.Errorf whose format
// string has no %w verb. Package-level sentinel definitions (var ErrX =
// errors.New(…)) are by construction not return statements and stay
// legal — they are the taxonomy.
var Taxonomy = &analysis.Analyzer{
	Name: "taxonomy",
	Doc: "errors returned on verification paths must wrap the attestation sentinel taxonomy with %w " +
		"so errors.Is works across layers; flags returned errors.New and fmt.Errorf without %w",
	Run: runTaxonomy,
}

func runTaxonomy(pass *analysis.Pass) error {
	if !taxonomyScope[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range ret.Results {
				checkTaxonomyExpr(pass, res)
			}
			return true
		})
	}
	return nil
}

// checkTaxonomyExpr judges one returned expression (descending through
// parentheses) against the wrapping rule.
func checkTaxonomyExpr(pass *analysis.Pass, expr ast.Expr) {
	expr = ast.Unparen(expr)
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch {
	case fn.Pkg().Path() == "errors" && fn.Name() == "New":
		pass.Reportf(call.Pos(),
			"bare errors.New returned on a verification path: wrap an attestation sentinel with fmt.Errorf(\"…: %%w\", Err…)")
	case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf":
		if len(call.Args) == 0 {
			return
		}
		lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
		if !ok {
			return // non-literal format: cannot judge mechanically
		}
		if !strings.Contains(lit.Value, "%w") {
			pass.Reportf(call.Pos(),
				"fmt.Errorf without %%w returned on a verification path: wrap the cause or a taxonomy sentinel so errors.Is survives the hop")
		}
	}
}
