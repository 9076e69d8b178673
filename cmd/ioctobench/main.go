// Command ioctobench regenerates the paper's evaluation artifacts: one
// table/series per figure, with shape checks against the published
// results.
//
// Every measurement point is an isolated deterministic simulation, so
// the harness fans points — and whole experiments — across a worker
// pool; output is byte-identical at any -parallel level.
//
// Usage:
//
//	ioctobench -list
//	ioctobench -fig fig6
//	ioctobench -fig all -quick -parallel 8
//	ioctobench -fig pmd -quick
//	ioctobench -fig fig14 -o fig14.txt
//	ioctobench -fig all -quick -json report.json
//	ioctobench -fig fig6 -profile ./prof
//	ioctobench -scenario chaos -quick
//	ioctobench -scenario my-experiment.json
//	ioctobench -fuzz 10 -seed 1
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	"ioctopus"
)

func main() {
	var (
		fig      = flag.String("fig", "", "experiment id (fig2, fig6..fig15, ablation-*), or 'all'")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		quick    = flag.Bool("quick", false, "short measurement windows (smoke run)")
		out      = flag.String("o", "", "write results to this file instead of stdout")
		jsonPath = flag.String("json", "", "also write a versioned JSON report (results + run metadata + registry snapshots) to this path")
		profDir  = flag.String("profile", "", "write cpu.pprof and heap.pprof for the run into this directory")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"max simulations in flight (1 = fully serial); results are identical at any level")
		scenarioArg = flag.String("scenario", "",
			"run a declarative scenario: a builtin name (chaos) or a path to a JSON spec file")
		fuzzN = flag.Int("fuzz", 0,
			"generate and run N seeded random scenarios (simulation fuzzing); seeds are -seed .. -seed+N-1")
		seed = flag.Int64("seed", 1, "first seed for -fuzz")
	)
	flag.Parse()

	if *list {
		for _, id := range ioctopus.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	modes := 0
	for _, on := range []bool{*fig != "", *scenarioArg != "", *fuzzN > 0} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "usage: ioctobench -fig <id>|all | -scenario <name|file.json> | -fuzz N [-seed S] [-quick] [-parallel N] [-o file]; -list for ids")
		os.Exit(2)
	}
	// Validate everything up front: a bad flag should fail here with a
	// clear message, not hours into a run.
	if *fig != "" && *fig != "all" && !ioctopus.HasExperiment(*fig) {
		fmt.Fprintf(os.Stderr, "ioctobench: unknown experiment %q; -list prints valid ids\n", *fig)
		os.Exit(2)
	}
	if *fuzzN < 0 {
		fmt.Fprintf(os.Stderr, "ioctobench: -fuzz %d is invalid; need a positive scenario count\n", *fuzzN)
		os.Exit(2)
	}
	if *jsonPath != "" && *fig == "" {
		fmt.Fprintln(os.Stderr, "ioctobench: -json reports cover figure runs; use -o for scenario/fuzz output")
		os.Exit(2)
	}
	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "ioctobench: -parallel %d is invalid; need at least 1 simulation in flight\n", *parallel)
		os.Exit(2)
	}
	ioctopus.SetParallelism(*parallel)

	d := ioctopus.FullDurations()
	if *quick {
		d = ioctopus.QuickDurations()
	}

	if *scenarioArg != "" || *fuzzN > 0 {
		runScenarios(*scenarioArg, *fuzzN, *seed, d, *out)
		return
	}

	ids := []string{*fig}
	if *fig == "all" {
		ids = ioctopus.ExperimentIDs()
	}

	stopProfiling := func() {}
	if *profDir != "" {
		stop, err := startProfiling(*profDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		stopProfiling = stop
	}

	results, err := runAll(ids, d, *parallel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var b strings.Builder
	failed := 0
	for _, res := range results {
		b.WriteString(res.Render())
		b.WriteString("\n")
		if !res.Passed() {
			failed++
		}
	}

	if *jsonPath != "" {
		if err := writeReport(*jsonPath, ids, *quick, d, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
	stopProfiling()

	emit(b.String(), *out)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) had failing shape checks\n", failed)
		os.Exit(1)
	}
}

// emit writes the rendered results to -o or stdout.
func emit(text, out string) {
	if out != "" {
		if err := os.WriteFile(out, []byte(text), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", out)
		return
	}
	fmt.Print(text)
}

// runScenarios executes either one named/file scenario at the run's
// -quick/full durations, or a -fuzz batch of generated scenarios at
// the fuzz durations, and exits nonzero when any check fails — the
// same contract as figure runs.
func runScenarios(name string, fuzzN int, seed int64, d ioctopus.Durations, out string) {
	var specs []*ioctopus.Scenario
	if name != "" {
		sp, err := ioctopus.LoadScenario(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		specs = append(specs, sp)
	} else {
		d = ioctopus.FuzzDurations()
		for i := 0; i < fuzzN; i++ {
			specs = append(specs, ioctopus.GenerateScenario(seed+int64(i)))
		}
	}
	var b strings.Builder
	failed := 0
	for _, sp := range specs {
		fmt.Fprintf(os.Stderr, "running scenario %s...\n", sp.Name)
		res, err := ioctopus.RunScenario(sp, d)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		b.WriteString(res.Render())
		b.WriteString("\n")
		if !res.Passed() {
			failed++
		}
	}
	emit(b.String(), out)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d scenario(s) had failing checks\n", failed)
		os.Exit(1)
	}
}

// runAll executes the experiments, concurrently up to `parallel` whole
// experiments in flight (their points additionally fan out through the
// library's shared pool), and returns results in input order.
func runAll(ids []string, d ioctopus.Durations, parallel int) ([]*ioctopus.ExperimentResult, error) {
	results := make([]*ioctopus.ExperimentResult, len(ids))
	errs := make([]error, len(ids))
	if parallel <= 1 || len(ids) == 1 {
		for i, id := range ids {
			fmt.Fprintf(os.Stderr, "running %s...\n", id)
			results[i], errs[i] = ioctopus.RunExperiment(id, d)
			if errs[i] != nil {
				return nil, errs[i]
			}
		}
		return results, nil
	}
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		// Loop variables are per-iteration since Go 1.22; capturing them
		// directly avoids shadowing params.
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fmt.Fprintf(os.Stderr, "running %s...\n", id)
			results[i], errs[i] = ioctopus.RunExperiment(id, d)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// writeReport emits the versioned JSON report: the figure results plus
// run metadata and the per-mode registry snapshots of the canonical
// smoke run. The report is validated before it lands on disk, so a
// schema regression fails the run instead of poisoning a pipeline.
func writeReport(path string, ids []string, quick bool, d ioctopus.Durations, results []*ioctopus.ExperimentResult) error {
	rep := ioctopus.NewReport(ids, quick, d, results)
	rep.Registry = ioctopus.RegistrySnapshots(d)
	enc, err := rep.Encode()
	if err != nil {
		return err
	}
	if err := ioctopus.ValidateReport(enc); err != nil {
		return fmt.Errorf("generated report failed validation: %w", err)
	}
	return os.WriteFile(path, enc, 0o644)
}

// startProfiling begins a CPU profile in dir and returns a stop
// function that finishes it and adds a heap profile.
func startProfiling(dir string) (stop func(), err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		cpu.Close()
		if heap, err := os.Create(filepath.Join(dir, "heap.pprof")); err == nil {
			runtime.GC()
			if err := pprof.WriteHeapProfile(heap); err != nil {
				fmt.Fprintf(os.Stderr, "heap profile: %v\n", err)
			}
			heap.Close()
		}
		fmt.Fprintf(os.Stderr, "wrote %s and %s\n",
			filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "heap.pprof"))
	}, nil
}
