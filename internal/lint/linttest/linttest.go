// Package linttest drives analyzer fixtures, the stdlib analog of
// golang.org/x/tools/go/analysis/analysistest. A fixture is an
// ordinary Go package under a testdata directory (invisible to the go
// tool) whose lines carry "want" comments:
//
//	start := time.Now() // want `wall-clock time.Now`
//
// Each backquoted or double-quoted string after "want" is a regexp that
// must match exactly one diagnostic reported on that line, rendered as
// "[rule] message" so expectations may pin the rule. Diagnostics with
// no matching expectation, and expectations with no matching
// diagnostic, both fail the test. Directive processing runs exactly as
// in cmd/octolint, so fixtures also cover the //octolint:allow escape
// hatch and its hygiene findings.
package linttest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ioctopus/internal/lint"
)

// wantRe splits the expectation list out of a want comment.
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// tokenRe matches one quoted expectation: a Go double-quoted string or
// a backquoted raw string.
var tokenRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// Run loads the fixture package rooted at dir as importPath, applies
// the analyzers, and checks every diagnostic against the fixture's
// want comments. importPath matters: some rules key on it (the
// simdeterminism math/rand exemption applies only inside
// ioctopus/internal/sim).
func Run(t *testing.T, dir, importPath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	loader, err := lint.NewLoader()
	if err != nil {
		t.Fatalf("finding the module root: %v", err)
	}
	pkg, err := loader.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s holds no Go files", dir)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				toks := tokenRe.FindAllString(m[1], -1)
				if len(toks) == 0 {
					t.Errorf("%s:%d: want comment carries no quoted expectation", pos.Filename, pos.Line)
					continue
				}
				for _, tok := range toks {
					pat := strings.Trim(tok, "`")
					if strings.HasPrefix(tok, `"`) {
						var uerr error
						pat, uerr = strconv.Unquote(tok)
						if uerr != nil {
							t.Errorf("%s:%d: bad expectation %s: %v", pos.Filename, pos.Line, tok, uerr)
							continue
						}
					}
					re, rerr := regexp.Compile(pat)
					if rerr != nil {
						t.Errorf("%s:%d: bad expectation regexp %q: %v", pos.Filename, pos.Line, pat, rerr)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	for _, d := range diags {
		rendered := fmt.Sprintf("[%s] %s", d.Rule, d.Message)
		matched := false
		for _, w := range wants {
			if !w.met && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(rendered) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected a diagnostic matching %q; got none", w.file, w.line, w.re)
		}
	}
}
