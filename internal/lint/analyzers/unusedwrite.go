package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"ioctopus/internal/lint"
)

// UnusedWrite is a reduced-scope port of x/tools' SSA-based
// "unusedwrite" analyzer: it reports assignments to local variables
// whose value is provably never read. Two patterns are covered,
// both without a CFG by restricting where they apply:
//
//   - a dead store: two consecutive plain writes to the same variable
//     in one block with no intervening statement mentioning it;
//   - a final write that no later expression in the function reads.
//
// Variables that are captured by closures, have their address taken,
// appear inside loops, or live in functions using goto are skipped —
// position order stops implying execution order there.
var UnusedWrite = &lint.Analyzer{
	Name: "unusedwrite",
	Run:  runUnusedWrite,
}

func runUnusedWrite(pass *lint.Pass) error {
	forEachFunc(pass, func(fd *ast.FuncDecl) {
		checkDeadStores(pass, fd.Body)
		checkFinalWrites(pass, fd)
	})
	return nil
}

// checkDeadStores flags back-to-back writes in the same block.
func checkDeadStores(pass *lint.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		lastWrite := map[types.Object]ast.Stmt{}
		for _, s := range block.List {
			w, obj := plainWrite(pass, s)
			if w != nil && obj != nil {
				if prev, ok := lastWrite[obj]; ok {
					pass.Reportf(prev.Pos(), "value written to %q is overwritten below before ever being read", obj.Name())
				}
				lastWrite[obj] = s
				continue
			}
			// Any other statement invalidates facts about the variables
			// it mentions; control-flow statements invalidate everything.
			switch s.(type) {
			case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
				*ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt,
				*ast.BranchStmt, *ast.DeferStmt, *ast.GoStmt:
				lastWrite = map[types.Object]ast.Stmt{}
			default:
				//octolint:allow simdeterminism pure predicate driving keyed deletes; no order can escape
				for obj := range lastWrite {
					if mentions(pass, s, obj) {
						delete(lastWrite, obj)
					}
				}
			}
		}
		return true
	})
}

// plainWrite matches `x = expr` (single LHS, pure assignment, RHS free
// of calls that could panic or depend on x indirectly) and returns the
// written variable.
func plainWrite(pass *lint.Pass, s ast.Stmt) (ast.Stmt, types.Object) {
	as, ok := s.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, nil
	}
	id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, nil
	}
	obj, ok := pass.Info.Uses[id].(*types.Var)
	if !ok || obj.IsField() || isPackageLevel(pass, obj) {
		return nil, nil
	}
	if mentions(pass, as.Rhs[0], obj) || hasCall(pass, as.Rhs[0]) {
		return nil, nil
	}
	return s, obj
}

// checkFinalWrites flags the last write to a variable when nothing in
// the function reads the variable afterwards.
func checkFinalWrites(pass *lint.Pass, fd *ast.FuncDecl) {
	// Disqualify whole functions containing goto labels.
	disqualified := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.GOTO {
			disqualified = true
		}
		return !disqualified
	})
	if disqualified {
		return
	}
	type varFacts struct {
		lastWrite ast.Node
		lastRead  token.Pos
		skip      bool
		namedRet  bool
	}
	facts := map[types.Object]*varFacts{}
	get := func(obj types.Object) *varFacts {
		f := facts[obj]
		if f == nil {
			f = &varFacts{}
			facts[obj] = f
		}
		return f
	}
	if fd.Type.Results != nil {
		for _, r := range fd.Type.Results.List {
			for _, name := range r.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					get(obj).namedRet = true
				}
			}
		}
	}
	var inLoopOrLit []ast.Node // stack of loop/funclit nodes
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			inLoopOrLit = append(inLoopOrLit, n)
			for _, c := range children(n) {
				walk(c)
			}
			inLoopOrLit = inLoopOrLit[:len(inLoopOrLit)-1]
			return
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if obj, ok := pass.Info.Uses[id].(*types.Var); ok {
						get(obj).skip = true
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); ok && id.Name != "_" {
					if obj, ok := pass.Info.Uses[id].(*types.Var); ok && !obj.IsField() && !isPackageLevel(pass, obj) {
						f := get(obj)
						if len(inLoopOrLit) > 0 {
							f.skip = true
						}
						f.lastWrite = n
						walk(n.Rhs[0])
						return
					}
				}
			}
			for _, c := range children(n) {
				walk(c)
			}
			return
		case *ast.Ident:
			if obj, ok := pass.Info.Uses[n].(*types.Var); ok {
				f := get(obj)
				if len(inLoopOrLit) > 0 {
					f.skip = true
				}
				if n.Pos() > f.lastRead {
					f.lastRead = n.Pos()
				}
			}
		}
		for _, c := range children(n) {
			walk(c)
		}
	}
	walk(fd.Body)
	//octolint:allow simdeterminism reports are sorted by position before output
	for obj, f := range facts {
		if f.skip || f.namedRet || f.lastWrite == nil || obj.Pkg() == nil {
			continue
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || isPackageLevel(pass, v) {
			continue
		}
		if f.lastRead < f.lastWrite.Pos() {
			pass.Reportf(f.lastWrite.Pos(), "value written to %q is never read", obj.Name())
		}
	}
}

// children returns a node's direct children, via ast.Inspect depth
// control.
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}

func isPackageLevel(pass *lint.Pass, obj types.Object) bool {
	return obj.Parent() == pass.Pkg.Scope() || (obj.Parent() != nil && obj.Parent().Parent() == types.Universe)
}
