// Command benchtab regenerates every table and figure of the paper's
// evaluation from the simulated testbed and prints the same rows/series
// the paper reports, annotated with the paper's values.
//
// Usage:
//
//	benchtab [-exp all|freq-sweep|fig2|fig3|fig4|table1|table2|
//	          cost-estimate|size-sweep|table3|clocksync|drift|fig7|fig8|
//	          fig10|fig11]
//	         [-full] [-seed 1]
//	benchtab -gobench -out BENCH_baseline.json
//	benchtab -gobench -check BENCH_baseline.json [-out fresh.json]
//	         [-cpuprofile bench.cpu.pprof] [-memprofile bench.mem.pprof]
//
// -full switches from the fast test scale to sample counts approaching
// the paper's (slower).
//
// -gobench works with the performance baseline instead: it runs the
// repository's benchmarks (bench_test.go plus the engine benchmarks in
// internal/sim; figure benchmarks once, sub-millisecond micro
// benchmarks at -benchtime 100x so their recorded ns/op is a real
// average rather than timer noise) and either writes the parsed
// results — ns/op, allocations, iteration counts and every custom
// metric — to the -out JSON file (committed as BENCH_*.json to track
// the perf trajectory across PRs), or, with -check, compares the fresh
// run's gated benchmarks against the committed baseline and exits
// nonzero on a >25% allocs/op regression (near-deterministic) or a
// catastrophic (>2.5x) ns/op slowdown — the CI perf gate of the
// datapath and the event scheduler. -check plus -out additionally
// writes the fresh run's JSON for artifact upload.
//
// -cpuprofile/-memprofile pass through to the underlying `go test`
// runs (one file per pass, suffixed with the pass name), so a hot-path
// regression flagged by the gate can be diagnosed with `go tool pprof`
// from the same binary CI runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (comma separated) or 'all'")
		full    = flag.Bool("full", false, "run at full scale (paper-like sample counts)")
		seed    = flag.Int64("seed", 1, "simulation seed")
		gobench = flag.Bool("gobench", false, "run the repo benchmarks (-out writes a baseline, -check compares against one)")
		out     = flag.String("out", "", "with -gobench: write the JSON baseline to this file")
		check   = flag.String("check", "", "with -gobench: compare gated benchmarks against this baseline, fail on regressions")
		cpuprof = flag.String("cpuprofile", "", "with -gobench: write per-pass CPU profiles to FILE.<pass>")
		memprof = flag.String("memprofile", "", "with -gobench: write per-pass heap profiles to FILE.<pass>")
	)
	flag.Parse()

	if *gobench {
		var err error
		switch {
		case *check != "":
			// -out alongside -check writes the fresh run for artifact
			// upload without a second benchmark pass.
			err = checkGoBench(*check, *out, *cpuprof, *memprof)
		case *out != "":
			err = runGoBench(*out, *cpuprof, *memprof)
		default:
			err = fmt.Errorf("benchtab: -gobench needs -out FILE (record) or -check FILE (compare)")
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	scale := experiments.ScaleTest
	if *full {
		scale = experiments.ScaleFull
	}

	runners := []struct {
		id string
		fn func()
	}{
		{"freq-sweep", func() { experiments.RunFreqSweep(scale, *seed).Print(os.Stdout) }},
		{"fig2", func() { experiments.RunFig2(scale, *seed).Print(os.Stdout) }},
		{"fig3", func() { experiments.RunFig3(scale, *seed).Print(os.Stdout) }},
		{"fig4", func() { experiments.RunMulticoreScaling(scale, *seed).Print(os.Stdout) }},
		{"table1", func() { experiments.RunTable1().Print(os.Stdout) }},
		{"table2", func() { experiments.RunTable2().Print(os.Stdout) }},
		{"cost-estimate", func() { experiments.RunCostEstimate(scale, *seed).Print(os.Stdout) }},
		{"size-sweep", func() { experiments.RunSizeSweep(scale, *seed).Print(os.Stdout) }},
		{"table3", func() { experiments.RunTable3(scale, *seed).Print(os.Stdout) }},
		{"clocksync", func() { experiments.RunClockSync(scale, *seed).Print(os.Stdout) }},
		{"drift", func() { experiments.RunDrift(scale, *seed).Print(os.Stdout) }},
		{"fig7", func() { experiments.RunFig7(scale, *seed).Print(os.Stdout) }},
		{"fig8", func() { experiments.RunTable4(scale, *seed).Print(os.Stdout) }},
		{"fig10", func() { experiments.RunFig10(scale, *seed).Print(os.Stdout) }},
		{"fig11", func() { experiments.RunFig11(scale, *seed).Print(os.Stdout) }},
	}

	want := map[string]bool{}
	all := *exp == "all"
	for _, id := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(id)] = true
	}
	ran := 0
	for _, r := range runners {
		if all || want[r.id] {
			fmt.Printf("\n### %s\n", r.id)
			r.fn()
			ran++
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known ids:\n", *exp)
		for _, r := range runners {
			fmt.Fprintf(os.Stderr, "  %s\n", r.id)
		}
		os.Exit(2)
	}
}
