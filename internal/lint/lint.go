// Package lint is a dependency-light static-analysis framework for this
// repository: the stdlib (go/parser + go/types) analog of
// golang.org/x/tools/go/analysis, which the module deliberately does not
// depend on. It enforces, at compile time, the invariants no run of the
// simulator reliably catches: determinism (no wall clock, no global
// RNG, no ordering leaks out of map iteration), which a golden shows
// only as a flake; metric naming, which no runtime check validates;
// and writes that are never read, which no run sees on a branch it
// does not take.
//
// An Analyzer inspects one type-checked package at a time through a
// Pass and reports Diagnostics. The Runner applies a set of analyzers
// to a set of packages, applies `//octolint:allow <rule> <reason>`
// suppression directives (see directives.go), and returns the surviving
// diagnostics in deterministic (file, line, column, rule) order.
// cmd/octolint is the multichecker front end; analyzers live in
// internal/lint/analyzers with fixture-based tests driven by
// internal/lint/linttest.
package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named rule. Run inspects a single package via the
// Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	// Name identifies the rule in output lines and allow directives
	// (lowercase, no spaces).
	Name string
	// Run performs the analysis. An error aborts the whole run (loader
	// or internal failures only — findings are diagnostics, not errors).
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// sortDiagnostics orders diagnostics by (file, line, column, rule,
// message) so runs are deterministic and diffable.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// Run applies every analyzer to every package, filters the findings
// through the allow directives found in the packages' files, and
// returns the surviving diagnostics sorted. Directive problems
// (missing justification, suppressing nothing, naming an unknown rule)
// are themselves diagnostics under the reserved rule name "directive".
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report:   func(d Diagnostic) { raw = append(raw, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	ds := applyDirectives(pkgs, raw, known)
	sortDiagnostics(ds)
	return ds, nil
}

// --- shared type/AST helpers used by the analyzers ---

// CalleeObject resolves the function or method object a call invokes,
// or nil for indirect calls, builtins, and type conversions.
func CalleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		return info.Uses[fn.Sel] // package-qualified call
	}
	return nil
}

// IsPkgFunc reports whether obj is the package-level function
// pkgPath.name.
func IsPkgFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() != pkgPath || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// ConstString returns the compile-time string value of expr, if it has
// one (a literal, a named constant, or constant concatenation).
func ConstString(info *types.Info, expr ast.Expr) (string, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
