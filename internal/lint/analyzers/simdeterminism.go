package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ioctopus/internal/lint"
)

// SimDeterminism enforces the repo's reproducibility contract: a run is
// a pure function of its seed. It front-runs the double-run `cmp` gates
// in scripts/check.sh by rejecting, at compile time,
//
//   - wall-clock reads (time.Now/Since/Until) — the engine clock
//     (sim.Engine.Now) is the only time source;
//   - global math/rand state — components must draw from the run's
//     seeded sim.RNG (internal/sim/rng.go, the one allowed importer);
//   - map iteration whose order can leak into observable output: a
//     `range` over a map is accepted only when its body is limited to
//     order-insensitive accumulation (commutative numeric updates,
//     keyed inserts, deletes) or collects into a slice that is sorted
//     before use.
var SimDeterminism = &lint.Analyzer{
	Name: "simdeterminism",
	Run:  runSimDeterminism,
}

// randImportAllowed is the one file set allowed to import math/rand:
// the seeded RNG wrapper every component draws from.
const randImportAllowed = "ioctopus/internal/sim"

func runSimDeterminism(pass *lint.Pass) error {
	checkRandImport(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkForbiddenCall(pass, call)
			}
			return true
		})
	}
	forEachFunc(pass, func(fd *ast.FuncDecl) {
		checkMapRanges(pass, fd.Body)
	})
	return nil
}

// checkRandImport flags math/rand imports outside the seeded-RNG home
// package. Everything else must take randomness from sim.RNG, which is
// derived from the run seed.
func checkRandImport(pass *lint.Pass) {
	if pass.Pkg.Path() == randImportAllowed {
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			switch strings.Trim(imp.Path.Value, `"`) {
			case "math/rand", "math/rand/v2":
				pass.Reportf(imp.Pos(), "import of %s outside %s: draw randomness from the run's seeded sim.RNG", strings.Trim(imp.Path.Value, `"`), randImportAllowed)
			}
		}
	}
}

// randConstructors are the only package-level math/rand functions the
// RNG wrapper itself may call: explicitly seeded constructors.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func checkForbiddenCall(pass *lint.Pass, call *ast.CallExpr) {
	obj := lint.CalleeObject(pass.Info, call)
	if obj == nil {
		return
	}
	for _, name := range []string{"Now", "Since", "Until"} {
		if lint.IsPkgFunc(obj, "time", name) {
			pass.Reportf(call.Pos(), "wall-clock time.%s breaks seeded reproducibility; derive timestamps from the engine clock (sim.Engine.Now)", name)
			return
		}
	}
	if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "math/rand", "math/rand/v2":
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && !randConstructors[fn.Name()] {
				pass.Reportf(call.Pos(), "global math/rand.%s draws from process-wide state; use the run's seeded sim.RNG", fn.Name())
			}
		}
	}
}

// checkMapRanges inspects every `range` over a map value inside body.
func checkMapRanges(pass *lint.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		var collectors []types.Object
		if !accumulationOnly(pass, rs.Body, rs, &collectors) {
			pass.Reportf(rs.Pos(), "map iteration order is nondeterministic and this loop body does more than order-insensitive accumulation; iterate sorted keys instead")
			return true
		}
		for _, c := range collectors {
			if !sortedAfter(pass, body, rs, c) {
				pass.Reportf(rs.Pos(), "map iteration collects into %q in nondeterministic order and %q is never sorted afterwards; sort it before use", c.Name(), c.Name())
			}
		}
		return true
	})
	// Note: nested function literals are traversed by the same Inspect.
}

// accumulationOnly reports whether every statement in the loop body is
// an order-insensitive form. Slice collectors (`s = append(s, ...)`)
// are legal only if sorted after the loop; they are returned for the
// caller to verify.
func accumulationOnly(pass *lint.Pass, body *ast.BlockStmt, rs *ast.RangeStmt, collectors *[]types.Object) bool {
	var stmtOK func(s ast.Stmt) bool
	stmtOK = func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.IncDecStmt:
			return true
		case *ast.BranchStmt:
			return s.Tok == token.CONTINUE
		case *ast.BlockStmt:
			for _, c := range s.List {
				if !stmtOK(c) {
					return false
				}
			}
			return true
		case *ast.IfStmt:
			if s.Init != nil && !stmtOK(s.Init) {
				return false
			}
			if hasCall(pass, s.Cond) {
				return false
			}
			if !stmtOK(s.Body) {
				return false
			}
			return s.Else == nil || stmtOK(s.Else)
		case *ast.ExprStmt:
			// delete(m, k) is keyed (order-insensitive) removal.
			if call, ok := s.X.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
						return true
					}
				}
			}
			return false
		case *ast.AssignStmt:
			return assignOK(pass, s, body, collectors)
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return false
			}
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						if hasCall(pass, v) {
							return false
						}
					}
				}
			}
			return true
		}
		return false
	}
	for _, s := range body.List {
		if !stmtOK(s) {
			return false
		}
	}
	return true
}

// commutativeOps are compound assignments whose final value does not
// depend on iteration order (over distinct map keys).
var commutativeOps = map[token.Token]bool{
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true,
	token.OR_ASSIGN: true, token.AND_ASSIGN: true, token.XOR_ASSIGN: true,
}

func assignOK(pass *lint.Pass, s *ast.AssignStmt, loopBody *ast.BlockStmt, collectors *[]types.Object) bool {
	if commutativeOps[s.Tok] {
		for _, r := range s.Rhs {
			if hasCall(pass, r) {
				return false
			}
		}
		return true
	}
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		return false
	}
	// s = append(s, ...): a collector, legal if sorted later.
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
					if lid, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident); ok {
						if aid, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && aid.Name == lid.Name {
							if obj := objectOf(pass, lid); obj != nil {
								*collectors = append(*collectors, obj)
								return true
							}
						}
					}
				}
			}
		}
	}
	for _, r := range s.Rhs {
		if hasCall(pass, r) {
			return false
		}
	}
	for _, l := range s.Lhs {
		switch l := ast.Unparen(l).(type) {
		case *ast.IndexExpr:
			// m[k] = v: keyed insert, order-insensitive per key.
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			// Writing a variable that outlives the loop makes the final
			// value "last iteration wins" — order-dependent. Temporaries
			// declared inside the loop are fine.
			obj := objectOf(pass, l)
			if obj == nil || obj.Pos() < loopBody.Pos() || obj.Pos() > loopBody.End() {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// objectOf resolves an identifier to its object (definition or use).
func objectOf(pass *lint.Pass, id *ast.Ident) types.Object {
	if o := pass.Info.Defs[id]; o != nil {
		return o
	}
	return pass.Info.Uses[id]
}

// hasCall reports whether expr contains any function call other than
// len or cap (which are pure and cannot observe iteration order).
func hasCall(pass *lint.Pass, expr ast.Expr) bool {
	if expr == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "len", "cap", "min", "max":
					return true
				}
			}
		}
		// A type conversion is not a call.
		if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
			return true
		}
		found = true
		return false
	})
	return found
}

// sortedAfter reports whether, somewhere after the range statement in
// the enclosing function body, the collector is passed to a sort: a
// sort.* / slices.* call, or a local helper whose name says it sorts
// (the repo's sortTuples idiom). Position-based: any later mention
// inside a sorting call qualifies.
func sortedAfter(pass *lint.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, collector types.Object) bool {
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		obj := lint.CalleeObject(pass.Info, call)
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" && !strings.Contains(strings.ToLower(fn.Name()), "sort") {
			return true
		}
		for _, arg := range call.Args {
			if mentions(pass, arg, collector) {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}
