package analyzers_test

import (
	"path/filepath"
	"testing"

	"ioctopus/internal/lint/analyzers"
	"ioctopus/internal/lint/linttest"
)

func fixture(parts ...string) string {
	return filepath.Join(append([]string{"testdata"}, parts...)...)
}

func TestSimDeterminism(t *testing.T) {
	linttest.Run(t, fixture("simdeterminism", "a"), "fixture/simdeterminism", analyzers.SimDeterminism)
}

// TestSimDeterminismRNGHome loads the fixture under the import path of
// the seeded-RNG home package, where the math/rand import (and its
// seeded constructors — but not the global functions) are allowed.
func TestSimDeterminismRNGHome(t *testing.T) {
	linttest.Run(t, fixture("simdeterminism", "sim"), "ioctopus/internal/sim", analyzers.SimDeterminism)
}

func TestMetricNames(t *testing.T) {
	linttest.Run(t, fixture("metricnames", "a"), "fixture/metricnames", analyzers.MetricNames)
}

func TestUnusedWrite(t *testing.T) {
	linttest.Run(t, fixture("unusedwrite", "a"), "fixture/unusedwrite", analyzers.UnusedWrite)
}

// TestDirectives exercises the //octolint:allow escape hatch end to
// end: justified directives suppress, and unjustified, ruleless,
// unknown-rule, and stale directives are themselves findings.
func TestDirectives(t *testing.T) {
	linttest.Run(t, fixture("directive", "a"), "fixture/directive", analyzers.SimDeterminism)
}
