// Command perfbench is the repository's end-to-end benchmark: wall
// time per delivered packet of the simulator on four paper workloads,
// each driven through the path `moongen run` takes (spec.Load →
// Document.Compile → scenario.Execute), with every run's simulated
// output checked.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload flood-64b --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs untraced and traced executions alternately and prints the
// per-layer metrics and a table reconciling them with the traced wall
// time per packet. The last line of standard output is always one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/scenario"
)

// minExecutions is the fewest full executions a run makes, whatever
// --seconds says: the fingerprint check needs two of the same seed.
const minExecutions = 2

// bench is the harness behind the registered benchmark scenarios.
var bench = &harness{specDir: "perfbench/specs"}

func init() {
	for _, w := range workloads {
		scenario.Register(&benchScenario{w: w, h: bench})
	}
}

func main() {
	// Every workload models one core (cores: 1), so the benchmark runs
	// the simulator on one Go processor whatever the host has: the
	// figures then neither depend on the runner's core count nor carry
	// the host's cross-CPU wake-up latency of simulated-task handoffs.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	outDir   string
}

func (o options) budget() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed of every execution")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "wall seconds to measure for")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&bench.specDir, "specs", bench.specDir, "directory holding the workload spec files")
	fs.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory the traced run writes its spans to")
	manifestPath := fs.String("write-benchmark-json", "", "write BENCHMARK.json to this path and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifestPath != "" {
		if err := os.WriteFile(*manifestPath, benchmarkJSON(), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "--trace must be 0 or 1")
		return 2
	}
	var res *result
	if o.trace == 0 {
		res, err = runUntraced(w, o, stdout)
	} else {
		res, err = runTraced(w, o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setMetric records a metric under its declared unit.
func (r *result) setMetric(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// verifier checks every execution's output and that all executions of
// a run — one seed — reproduce the first one's fingerprint.
type verifier struct {
	w         *workload
	want      string
	attempted int
	failed    int
	out       io.Writer
}

func (v *verifier) verify(ex *execution) {
	v.attempted++
	fp := fingerprint(ex.report)
	if v.want == "" {
		v.want = fp
	}
	err := v.w.check(ex.report)
	if err == nil && fp != v.want {
		err = fmt.Errorf("report fingerprint %s differs from %s for the same seed", fp, v.want)
	}
	if err != nil {
		v.failed++
		fmt.Fprintf(v.out, "FAILED execution %d: %v\n", v.attempted, err)
	}
}

// A clock picks one of an execution's per-window time series.
type clock func(*execution) []int64

func wallClock(ex *execution) []int64 { return ex.windowWall }
func cpuClock(ex *execution) []int64  { return ex.windowCPU }

// windowValues returns every window's nanoseconds on clock per
// delivered packet, over all executions, sorted.
func windowValues(execs []*execution, c clock) ([]float64, error) {
	var v []float64
	for _, ex := range execs {
		for k, ns := range c(ex) {
			if ex.windowPkts[k] == 0 {
				return nil, fmt.Errorf("window %d delivered no packets", k)
			}
			v = append(v, float64(ns)/float64(ex.windowPkts[k]))
		}
	}
	sort.Float64s(v)
	return v, nil
}

// perPacket is the executions' time on clock over all windows per
// packet delivered in them.
func perPacket(execs []*execution, c clock) float64 {
	var ns int64
	var pkts uint64
	for _, ex := range execs {
		for _, d := range c(ex) {
			ns += d
		}
		pkts += ex.delivered()
	}
	return float64(ns) / float64(pkts)
}

// perExecution returns each execution's nanoseconds on clock per
// delivered packet.
func perExecution(execs []*execution, c clock) []float64 {
	out := make([]float64, len(execs))
	for i, ex := range execs {
		out[i] = perPacket([]*execution{ex}, c)
	}
	return out
}

// executeFor runs one execution of each mode in turn, round after
// round, until the next round would overrun budget and at least
// minExecutions rounds are done. It returns the executions by mode.
func executeFor(w *workload, seed int64, budget time.Duration, modes []mode, v *verifier) ([][]*execution, error) {
	out := make([][]*execution, len(modes))
	start := time.Now()
	var last time.Duration
	for len(out[0]) < minExecutions || time.Since(start)+last <= budget {
		t0 := time.Now()
		for i, m := range modes {
			// Drop the reports already verified before the next
			// execution: a report can hold megabytes of per-flow latency
			// samples, which would grow its heap and so its peak RSS.
			// Only the run's last report outlives the loop.
			for _, done := range out {
				if n := len(done); n > 0 {
					done[n-1].report = nil
				}
			}
			ex, err := bench.execute(w, seed, m)
			if err != nil {
				return nil, err
			}
			v.verify(ex)
			out[i] = append(out[i], ex)
		}
		last = time.Since(t0)
	}
	return out, nil
}

func runUntraced(w *workload, o options, out io.Writer) (*result, error) {
	v := &verifier{w: w, out: out}
	runs, err := executeFor(w, o.seed, o.budget(), []mode{modeTimed}, v)
	if err != nil {
		return nil, err
	}
	execs := runs[0]
	cpu, err := windowValues(execs, cpuClock)
	if err != nil {
		return nil, err
	}
	wall, err := windowValues(execs, wallClock)
	if err != nil {
		return nil, err
	}
	n := len(cpu)
	top := tailLevel(n) // the highest percentile with ten windows beyond it
	if top < 99 {
		return nil, fmt.Errorf("%d windows leave fewer than %d beyond p99", n, minBeyond)
	}
	setupS := make([]float64, len(execs))
	for i, ex := range execs {
		setupS[i] = ex.setupSeconds()
	}
	// A process that runs the workload once: later executions in the
	// same process also carry what earlier ones left in package-level
	// caches.
	rss := float64(execs[0].peakRSS) / (1 << 20)
	cpuMean, wallMean := perPacket(execs, cpuClock), perPacket(execs, wallClock)
	res := &result{Attempted: v.attempted, Failed: v.failed, Metrics: map[string]metricValue{}}
	res.Correct = v.failed == 0
	res.setMetric(endToEnd, "cpu_ns_per_pkt_p95", percentile(cpu, gatedLevel))
	res.setMetric(endToEnd, "setup_s", median(setupS))
	res.setMetric(endToEnd, "peak_rss_mb", rss)

	fmt.Fprintf(out, "workload %s  seed %d  GOMAXPROCS %d  %d executions of %v simulated, %d windows of %v each\n",
		w.name, o.seed, runtime.GOMAXPROCS(0), len(execs), execs[0].window*windowsPerExecution, windowsPerExecution, execs[0].window)
	fmt.Fprintf(out, "  %-22s %11.1f ns  all %d windows, not gated; per execution %.1f\n", "cpu_ns_per_pkt_mean", cpuMean, n, perExecution(execs, cpuClock))
	for _, p := range []float64{50, gatedLevel, 99, top} {
		gated := ", not gated"
		if p == gatedLevel {
			gated = ""
		}
		fmt.Fprintf(out, "  %-22s %11.1f ns  p%v of %d windows, %d beyond%s\n",
			fmt.Sprintf("cpu_ns_per_pkt_p%v", p), percentile(cpu, p), p, n, beyond(n, p), gated)
		if p == top {
			break
		}
	}
	fmt.Fprintf(out, "  %-22s %11.1f ns  not gated; %.1f%% of it stolen by the hypervisor\n", "wall_ns_per_pkt_mean", wallMean, 100*(1-cpuMean/wallMean))
	fmt.Fprintf(out, "  %-22s %11.1f ns  p50 of %d windows, not gated\n", "wall_ns_per_pkt_p50", percentile(wall, 50), n)
	fmt.Fprintf(out, "  %-22s %11.1f ns  p99 of %d windows, not gated\n", "wall_ns_per_pkt_p99", percentile(wall, 99), n)
	fmt.Fprintf(out, "  %-22s %11.5f s   median of %d executions\n", "setup_s", median(setupS), len(setupS))
	fmt.Fprintf(out, "  %-22s %11.1f MB  peak RSS of the process through its first execution\n", "peak_rss_mb", rss)
	fmt.Fprintf(out, "  checks: %d/%d executions correct, report fingerprint %s\n", v.attempted-v.failed, v.attempted, v.want)
	return res, nil
}

func runTraced(w *workload, o options, out io.Writer) (*result, error) {
	v := &verifier{w: w, out: out}
	runs, err := executeFor(w, o.seed, o.budget(), []mode{modeRuntime, modeTraced}, v)
	if err != nil {
		return nil, err
	}
	plain, traced := runs[0], runs[1]
	l := layerReport(plain, traced)
	res := &result{Attempted: v.attempted, Failed: v.failed, Metrics: map[string]metricValue{}}
	res.Correct = v.failed == 0
	for _, d := range perLayer {
		val, ok := l.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.Name)
		}
		res.setMetric(perLayer, d.Name, val)
	}
	fmt.Fprintf(out, "workload %s  seed %d  %d untraced + %d traced executions\n", w.name, o.seed, len(plain), len(traced))
	l.print(out)
	fmt.Fprintf(out, "  checks: %d/%d executions correct, traced and untraced fingerprint %s\n", v.attempted-v.failed, v.attempted, v.want)

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.outDir, w.name+".spans.csv")
	if err := writeSpans(path, bench.lastSpans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "  spans of the last traced execution: %s (%d spans)\n", path, len(bench.lastSpans))
	return res, nil
}
