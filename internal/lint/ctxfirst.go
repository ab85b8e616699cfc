package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"revelio/internal/lint/analysis"
)

// ctxFacades are the packages allowed to mint root contexts: the SDK
// facade (the top of the public stack — somebody has to own the root)
// and the internal/bench experiment drivers, which are process
// entrypoints in library clothing. Everything else below the facade
// receives its context from the caller. Package main (cmds, examples)
// is exempt by construction.
var ctxFacades = map[string]bool{
	"revelio":                true,
	"revelio/internal/bench": true,
}

// ctxBlockingCalls names stdlib calls that block on the network with no
// way to thread a context, each with its context-aware replacement.
// Calling one of these anywhere in library code is a diagnostic: either
// the function has a ctx that must reach the blocking call, or it
// should grow one.
var ctxBlockingCalls = map[string]string{
	"net/http.Get":        "http.NewRequestWithContext + Client.Do",
	"net/http.Head":       "http.NewRequestWithContext + Client.Do",
	"net/http.Post":       "http.NewRequestWithContext + Client.Do",
	"net/http.PostForm":   "http.NewRequestWithContext + Client.Do",
	"net/http.NewRequest": "http.NewRequestWithContext",
	"net.Dial":            "(*net.Dialer).DialContext",
	"net.DialTimeout":     "(*net.Dialer).DialContext",
	"net.LookupHost":      "(*net.Resolver).LookupHost",
	// Methods (receiver type qualified the way types.Func.FullName does).
	"(*net/http.Client).Get":      "http.NewRequestWithContext + Client.Do",
	"(*net/http.Client).Head":     "http.NewRequestWithContext + Client.Do",
	"(*net/http.Client).Post":     "http.NewRequestWithContext + Client.Do",
	"(*net/http.Client).PostForm": "http.NewRequestWithContext + Client.Do",
	"(*net.Dialer).Dial":          "(*net.Dialer).DialContext",
}

// CtxFirst enforces the context-first lifecycle below the SDK facade:
// exported functions that take a context take it first, library code
// never mints context.Background/TODO, and blocking stdlib calls with
// context-aware variants are never used (the held ctx must reach the
// blocking call).
var CtxFirst = &analysis.Analyzer{
	Name: "ctxfirst",
	Doc: "context-first lifecycle: exported funcs doing I/O take context.Context first, " +
		"no context.Background/TODO in library code below the SDK facade, " +
		"and the ctx must reach the blocking call (no http.Get/net.Dial style APIs)",
	Run: runCtxFirst,
}

func runCtxFirst(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if pass.Pkg.Name() == "main" || ctxFacades[path] {
		return nil
	}
	if path != "revelio" && !strings.HasPrefix(path, "revelio/") {
		return nil // fixture harness loads stdlib deps from source; judge only our module
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkCtxPosition(pass, n)
			case *ast.CallExpr:
				checkCtxCall(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkCtxPosition flags exported functions whose context.Context
// parameter is not the first parameter.
func checkCtxPosition(pass *analysis.Pass, fn *ast.FuncDecl) {
	if !fn.Name.IsExported() || fn.Type.Params == nil {
		return
	}
	idx := 0
	for _, field := range fn.Type.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		isCtx := t != nil && t.String() == "context.Context"
		names := len(field.Names)
		if names == 0 {
			names = 1
		}
		if isCtx && idx != 0 {
			pass.Reportf(field.Pos(),
				"exported %s takes context.Context at position %d: context comes first", fn.Name.Name, idx+1)
			return
		}
		idx += names
	}
}

// checkCtxCall flags context.Background/TODO and the known blocking
// calls that cannot carry a context.
func checkCtxCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO") {
		pass.Reportf(call.Pos(),
			"context.%s in library code below the SDK facade: thread the caller's ctx (or context.WithoutCancel(ctx) for cleanup that must outlive it)",
			fn.Name())
		return
	}
	if repl, ok := ctxBlockingCalls[fn.FullName()]; ok {
		pass.Reportf(call.Pos(),
			"%s blocks without a context: the held ctx must reach the blocking call — use %s", fn.FullName(), repl)
	}
}
