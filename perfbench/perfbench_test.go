package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100) holds a [10,40) and b [50,60); a holds c [20,25).
	// The async probe [30,90) overlaps everything but covers nothing.
	spans := []span{
		{Start: 0, End: 100, Parent: noParent, Name: spanSimRun},
		{Start: 10, End: 40, Parent: 0, Name: spanMempoolAlloc},
		{Start: 20, End: 25, Parent: 1, Name: spanProtoFill},
		{Start: 30, End: 90, Parent: noParent, Name: spanCoreProbe, Async: true},
		{Start: 50, End: 60, Parent: 0, Name: spanNicTxSubmit},
		{Start: 60, End: 62, Parent: 0, Name: spanNicTxSubmit},
	}
	self := selfTimes(spans)
	want := map[spanName]int64{
		spanSimRun:       100 - 30 - 10 - 2,
		spanMempoolAlloc: 30 - 5,
		spanProtoFill:    5,
		spanNicTxSubmit:  12,
		spanCoreProbe:    0,
	}
	var sum int64
	for n, w := range want {
		if self[n] != w {
			t.Errorf("self(%s) = %d, want %d", n, self[n], w)
		}
		sum += self[n]
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
	total, calls := totalTimes(spans)
	if total[spanNicTxSubmit] != 12 || calls[spanNicTxSubmit] != 2 || total[spanCoreProbe] != 60 {
		t.Errorf("totals %v calls %v", total, calls)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin(spanSimRun)
	a := tr.begin(spanMempoolAlloc)
	p := tr.beginAsync(spanCoreProbe)
	b := tr.begin(spanProtoFill)
	tr.end(b)
	tr.endAsync(p)
	tr.end(a)
	tr.end(root)
	if tr.spans[a].Parent != root || tr.spans[b].Parent != a || tr.spans[p].Parent != noParent {
		t.Fatalf("parents %+v", tr.spans)
	}
	defer func() {
		if recover() == nil {
			t.Error("closing a span out of order did not panic")
		}
	}()
	x := tr.begin(spanSimRun)
	tr.begin(spanMempoolFree)
	tr.end(x)
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {40, 75}, {20, 50}, {19, 0}, {1, 0},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailLevel(c.n); p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond(c.n, p), p)
		}
	}
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten beyond)", got)
	}
	if got := percentile(v, gatedLevel); got != 950 {
		t.Errorf("p95 of 1..1000 = %v, want 950", got)
	}
	if got := percentile(v, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestFingerprint(t *testing.T) {
	mk := func() *scenario.Report {
		h := stats.NewHistogram(1)
		h.Add(5)
		h.Add(9)
		r := &scenario.Report{Scenario: "flood", TxPackets: 10, RxPackets: 9, Latency: h,
			Flows: []scenario.FlowReport{{Name: "f0", TxPackets: 10, RxPackets: 9, Lost: 1}}}
		r.AddRow("DuT dropped", 0, "packets")
		return r
	}
	a, b := mk(), mk()
	b.Scenario = "perfbench/flood-64b"
	b.Telemetry = &telemetry.Series{}
	if fingerprint(a) != fingerprint(b) {
		t.Error("fingerprint depends on the scenario name or the telemetry series")
	}
	for name, mutate := range map[string]func(r *scenario.Report){
		"rx":      func(r *scenario.Report) { r.RxPackets++ },
		"flow":    func(r *scenario.Report) { r.Flows[0].Lost++ },
		"row":     func(r *scenario.Report) { r.Rows[0].Value = 1 },
		"latency": func(r *scenario.Report) { r.Latency.Add(7) },
		"note":    func(r *scenario.Report) { r.Notes = append(r.Notes, "x") },
	} {
		c := mk()
		mutate(c)
		if fingerprint(c) == fingerprint(a) {
			t.Errorf("fingerprint ignores a change to %s", name)
		}
	}
}

func TestBenchmarkJSONIsGenerated(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Error("../BENCHMARK.json is stale; regenerate it with: go run . -write-benchmark-json ../BENCHMARK.json")
	}
}

// TestWorkloadsReproduceScenario runs every workload on a shortened
// copy of its spec three ways — the registered scenario alone, the
// benchmark's instrumented execution, and its traced variant — and
// requires identical report fingerprints and passing output checks.
func TestWorkloadsReproduceScenario(t *testing.T) {
	dir := t.TempDir()
	runtimeKey := regexp.MustCompile(`(?m)^runtime: .*$`)
	for _, w := range workloads {
		src, err := os.ReadFile(filepath.Join("specs", w.specFile))
		if err != nil {
			t.Fatal(err)
		}
		if !runtimeKey.Match(src) {
			t.Fatalf("%s pins no runtime", w.specFile)
		}
		short := runtimeKey.ReplaceAll(src, []byte("runtime: 20ms"))
		if err := os.WriteFile(filepath.Join(dir, w.specFile), short, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	defer func(d string) { bench.specDir = d }(bench.specDir)
	bench.specDir = dir

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			doc, err := spec.Load(filepath.Join(dir, w.specFile))
			if err != nil {
				t.Fatal(err)
			}
			name, sp, err := doc.Compile()
			if err != nil {
				t.Fatal(err)
			}
			sp.Seed = 3
			plain, err := scenario.Execute(name, sp, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(plain)
			for _, m := range []mode{modeTimed, modeRuntime, modeTraced} {
				ex, err := bench.execute(w, 3, m)
				if err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(ex.report); got != want {
					t.Errorf("mode %d: fingerprint %s, registered scenario gives %s", m, got, want)
				}
				if err := w.check(ex.report); err != nil {
					t.Errorf("mode %d: %v", m, err)
				}
				if len(ex.windowWall) != windowsPerExecution || ex.delivered() == 0 {
					t.Errorf("mode %d: %d windows, %d packets", m, len(ex.windowWall), ex.delivered())
				}
			}
		})
	}
}
