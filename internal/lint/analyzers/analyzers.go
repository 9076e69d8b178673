// Package analyzers holds the octolint rules: repo-specific static
// checks for the invariants no run of the simulator reliably catches:
// seeded determinism, metric naming and writes that are never read.
// DESIGN.md §"Statically enforced invariants" is the prose version.
package analyzers

import (
	"go/ast"
	"go/types"

	"ioctopus/internal/lint"
)

// All returns every analyzer in the suite, in reporting order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		SimDeterminism,
		MetricNames,
		UnusedWrite,
	}
}

// forEachFunc invokes fn for every function and method body in the
// package (declared functions only; function literals are reached by
// the analyses that need them from within their enclosing function).
func forEachFunc(pass *lint.Pass, fn func(decl *ast.FuncDecl)) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// mentions reports whether any identifier inside n refers to obj.
func mentions(pass *lint.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if id, ok := c.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}
