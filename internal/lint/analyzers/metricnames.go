package analyzers

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"ioctopus/internal/lint"
)

// MetricNames validates metric registration sites
// (internal/metrics.Registrar: Counter, Gauge, Scope). Names become
// the '/'-namespaced keys of the JSON report schema, so they must be
// compile-time constants — either a constant string or fmt.Sprintf
// with a constant format — lowercase, and composed of [a-z0-9_]
// segments separated by '/'. No runtime check validates a name, and a
// golden is updated along with a new metric, so this rule is the only
// guard. Duplicates need none here: the registry panics on one at the
// cluster build every run performs.
var MetricNames = &lint.Analyzer{
	Name: "metricnames",
	Run:  runMetricNames,
}

const metricsPkg = "ioctopus/internal/metrics"

// registrarMethods take a metric (or scope) name as their first
// argument.
var registrarMethods = map[string]bool{"Counter": true, "Gauge": true, "Scope": true}

// metricSegment is one '/'-separated component of a metric name after
// Sprintf verbs are substituted out.
var metricSegment = regexp.MustCompile(`^[a-z0-9_]+$`)

// sprintfVerb matches the printf verbs that may appear in dynamic
// scope names ("pf%d", "link%dto%d").
var sprintfVerb = regexp.MustCompile(`%[-+ #0]*[0-9*]*(\.[0-9*]+)?[a-zA-Z]`)

func runMetricNames(pass *lint.Pass) error {
	forEachFunc(pass, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !registrarMethods[sel.Sel.Name] {
				return true
			}
			if !isRegistrarMethod(pass, call, sel.Sel.Name) {
				return true
			}
			arg := call.Args[0]
			name, constant := lint.ConstString(pass.Info, arg)
			if !constant {
				var viaSprintf bool
				name, viaSprintf = sprintfConstFormat(pass, arg)
				if !viaSprintf {
					pass.Reportf(arg.Pos(), "metric %s name must be a constant string (or fmt.Sprintf of one); dynamic names defeat stable report keys", sel.Sel.Name)
					return true
				}
				name = sprintfVerb.ReplaceAllString(name, "0")
			}
			if !validMetricName(name) {
				pass.Reportf(arg.Pos(), "metric name %q must be lowercase [a-z0-9_] segments separated by '/'", name)
			}
			return true
		})
	})
	return nil
}

// isRegistrarMethod reports whether the call resolves to a method of
// the internal/metrics registrar surface (the Registrar interface, the
// *Registry root, or its scope type).
func isRegistrarMethod(pass *lint.Pass, call *ast.CallExpr, name string) bool {
	obj := lint.CalleeObject(pass.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != metricsPkg {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// sprintfConstFormat matches fmt.Sprintf(constFormat, ...) and returns
// the format string.
func sprintfConstFormat(pass *lint.Pass, expr ast.Expr) (string, bool) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", false
	}
	if !lint.IsPkgFunc(lint.CalleeObject(pass.Info, call), "fmt", "Sprintf") {
		return "", false
	}
	return lint.ConstString(pass.Info, call.Args[0])
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for _, seg := range strings.Split(name, "/") {
		if !metricSegment.MatchString(seg) {
			return false
		}
	}
	return true
}
