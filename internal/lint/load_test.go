package lint_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"

	"ioctopus/internal/lint"
)

// TestLoadModule loads the repository the way cmd/octolint does. The
// walk finds every package the go tool lists plus the nested perfbench
// module, and each package is type-checked once: wherever a module
// package imports another, the *types.Package it sees is the one
// LoadModule returned for that path.
func TestLoadModule(t *testing.T) {
	loader, err := lint.NewLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*lint.Package{}
	var got []string
	for _, p := range pkgs {
		byPath[p.Path] = p
		got = append(got, p.Path)
	}

	cmd := exec.Command("go", "list", "-f", "{{if .GoFiles}}{{.ImportPath}}{{end}}", "./...")
	cmd.Dir = loader.Root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	want := append(strings.Fields(string(out)), "ioctopus/perfbench")
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("LoadModule import paths:\n got %v\nwant %v", got, want)
	}

	edges := 0
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				edges++
				if imp != dep.Types {
					t.Errorf("%s imports a second copy of %s", p.Path, imp.Path())
				}
			}
		}
	}
	if edges == 0 {
		t.Error("no module package imports another")
	}
}
