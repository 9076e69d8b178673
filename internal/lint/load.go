// Package loading: a stdlib-only substitute for
// golang.org/x/tools/go/packages, sufficient for this single module.
// The module root is the nearest directory at or above the working
// directory that holds a go.mod, and the module path comes from that
// file. Package discovery is a directory walk (skipping testdata,
// hidden and underscore directories, exactly as the go tool does).
// Each package is type-checked once: an import inside the module, or
// inside a module go.mod replaces with a local directory (how the
// nested perfbench module reaches ioctopus), resolves to the loader's
// own package for that path, loaded on first use, and every other
// import comes from the compiler's export data — no network, no module
// downloads.

package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	Path  string // import path ("ioctopus/internal/sim")
	Fset  *token.FileSet
	Files []*ast.File // non-test files, sorted by filename
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks the packages of one module. One Loader
// shares a FileSet, a standard-library importer and the packages it
// has loaded across every package it loads.
type Loader struct {
	Root string // the module root: the directory holding go.mod
	// mods are the modules whose source the loader type-checks: the
	// module at Root first, then go.mod's local replacements.
	mods []module
	fset *token.FileSet
	std  types.Importer
	// pkgs memoizes packages by import path; a nil entry marks one
	// whose type-check is in progress.
	pkgs map[string]*Package
}

// module maps a module path to the directory holding its source.
type module struct{ path, dir string }

// NewLoader returns a loader for the module enclosing the working
// directory.
func NewLoader() (*Loader, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	mods, err := readGoMod(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root: root,
		mods: mods,
		fset: fset,
		std:  importer.ForCompiler(fset, "gc", nil),
		pkgs: map[string]*Package{},
	}, nil
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod at or above the working directory")
		}
		dir = parent
	}
}

// readGoMod reads root's go.mod: its module path, then every
// single-line replace directive that points at a local directory.
func readGoMod(root string) ([]module, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mods := []module{{dir: root}}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			mods[0].path = strings.TrimSpace(rest)
		} else if rest, ok := strings.CutPrefix(line, "replace "); ok {
			from, to, _ := strings.Cut(rest, "=>")
			path, _, _ := strings.Cut(strings.TrimSpace(from), " ")
			if to = strings.TrimSpace(to); strings.HasPrefix(to, ".") {
				mods = append(mods, module{path, filepath.Join(root, to)})
			}
		}
	}
	if mods[0].path == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	return mods, nil
}

// LoadModule loads every package under the module root, in
// deterministic directory order. Directories named testdata, hidden
// directories, and underscore-prefixed directories are skipped, like
// the go tool skips them.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		importPath := l.mods[0].path
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, importPath)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// Import resolves an import of a package being type-checked: a path
// inside one of the loader's modules to the loader's own package for
// it, loaded on first use, and any other path to the compiler's export
// data.
func (l *Loader) Import(path string) (*types.Package, error) {
	for _, m := range l.mods {
		dir := m.dir
		if rel, ok := strings.CutPrefix(path, m.path+"/"); ok {
			dir = filepath.Join(dir, filepath.FromSlash(rel))
		} else if path != m.path {
			continue
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: import %q: no Go files", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// LoadDir parses and type-checks the single package in dir under
// importPath, once per path, returning nil (no error) when the
// directory holds no non-test Go files.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", importPath)
		}
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if len(files) > 0 && f.Name.Name != files[0].Name.Name {
			return nil, fmt.Errorf("lint: %s: mixed packages %q and %q", dir, files[0].Name.Name, f.Name.Name)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	l.pkgs[importPath] = nil
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		delete(l.pkgs, importPath)
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{
		Path:  importPath,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}
