// Allow directives: the escape hatch for findings that are understood
// and justified. A comment of the form
//
//	//octolint:allow <rule> <reason>
//
// suppresses <rule>'s findings on its own line and on the line below
// (so it can trail the offending line or stand alone above it). The
// reason is mandatory: a bare "//octolint:allow simdeterminism" is
// itself a finding (reserved rule "directive"), as is a directive that
// suppresses nothing or names a rule the run does not know. The policy
// is deliberately strict; the directive is an audit record, not a
// mute button.

package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// directivePrefix introduces an allow directive. The space-free form
// follows the Go convention for machine-readable comments
// (//go:build, //nolint), so gofmt leaves it alone.
const directivePrefix = "//octolint:allow"

// DirectiveRule is the reserved rule name under which problems with
// the directives themselves are reported. It cannot be suppressed.
const DirectiveRule = "directive"

type directive struct {
	pos  token.Position
	rule string
	used bool
}

// parseDirectives extracts every octolint directive from a file.
// Malformed directives (no rule, or no reason) are reported
// immediately and excluded from suppression.
func parseDirectives(fset *token.FileSet, f *ast.File, report func(Diagnostic)) []*directive {
	var ds []*directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			// The reason ends at an embedded comment marker, so fixture
			// "// want" annotations (linttest) don't read as justification.
			if i := strings.Index(text, "//"); i >= 0 {
				text = text[:i]
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(text)
			if len(fields) == 0 {
				report(Diagnostic{Pos: pos, Rule: DirectiveRule,
					Message: "octolint:allow directive names no rule"})
				continue
			}
			if len(fields) < 2 {
				report(Diagnostic{Pos: pos, Rule: DirectiveRule,
					Message: "octolint:allow " + fields[0] + " has no justification; write //octolint:allow " + fields[0] + " <reason>"})
				continue
			}
			ds = append(ds, &directive{pos: pos, rule: fields[0]})
		}
	}
	return ds
}

// applyDirectives filters raw findings through the allow directives of
// every package and appends directive-hygiene findings: unknown rules
// and directives that suppressed nothing.
func applyDirectives(pkgs []*Package, raw []Diagnostic, known map[string]bool) []Diagnostic {
	var all []*directive
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			all = append(all, parseDirectives(pkg.Fset, f, func(d Diagnostic) { out = append(out, d) })...)
		}
	}
	// byKey indexes directives by (file, line, rule) for the two lines
	// each covers: its own and the next.
	type key struct {
		file string
		line int
		rule string
	}
	byKey := map[key]*directive{}
	for _, d := range all {
		byKey[key{d.pos.Filename, d.pos.Line, d.rule}] = d
		byKey[key{d.pos.Filename, d.pos.Line + 1, d.rule}] = d
	}
	for _, diag := range raw {
		if diag.Rule != DirectiveRule {
			if d, ok := byKey[key{diag.Pos.Filename, diag.Pos.Line, diag.Rule}]; ok {
				d.used = true
				continue
			}
		}
		out = append(out, diag)
	}
	for _, d := range all {
		if !known[d.rule] {
			out = append(out, Diagnostic{Pos: d.pos, Rule: DirectiveRule,
				Message: "octolint:allow names unknown rule " + d.rule})
			continue
		}
		if !d.used {
			out = append(out, Diagnostic{Pos: d.pos, Rule: DirectiveRule,
				Message: "octolint:allow " + d.rule + " suppresses nothing; remove the stale directive"})
		}
	}
	return out
}
