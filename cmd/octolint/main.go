// Command octolint is the repository's static-analysis multichecker:
// it loads every package in the module with the stdlib toolchain
// (go/parser + go/types, no external dependencies) and applies the
// octolint analyzer suite (internal/lint/analyzers), which enforces at
// compile time the invariants no run of the simulator reliably
// catches: seeded determinism, metric naming and writes never read.
//
// Usage, from anywhere inside the module:
//
//	octolint
//
// Findings print one per line as file:line:col: [rule] message and set
// exit status 1; loader or internal errors set status 2. Justified
// exceptions are recorded inline with
//
//	//octolint:allow <rule> <reason>
//
// which covers its own line and the next; unjustified or stale
// directives are findings themselves.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ioctopus/internal/lint"
	"ioctopus/internal/lint/analyzers"
)

func main() {
	flag.Parse()
	loader, err := lint.NewLoader()
	if err != nil {
		fail(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fail(err)
	}
	diags, err := lint.Run(pkgs, analyzers.All())
	if err != nil {
		fail(err)
	}
	for _, d := range diags {
		if rel, rerr := filepath.Rel(loader.Root, d.Pos.Filename); rerr == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "octolint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "octolint: %v\n", err)
	os.Exit(2)
}
