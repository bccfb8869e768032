package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/spec"
)

// windowsPerExecution splits every execution's simulated runtime into
// this many equal windows: enough that the p99 of one execution alone
// has ten windows beyond it.
const windowsPerExecution = 1000

// mode selects what one execution measures.
type mode int

const (
	// modeTimed measures set-up and per-window wall time with tracing
	// off.
	modeTimed mode = iota
	// modeRuntime is modeTimed plus Go runtime counters and heap
	// samples, read outside the windows' hot path.
	modeRuntime
	// modeTraced records layer spans around the workload's public calls.
	modeTraced
)

// execution is one pass of a workload through the public path a user
// takes: spec.Load → Document.Compile → scenario.Execute.
type execution struct {
	mode   mode
	window sim.Duration

	start      time.Time // before spec.Load
	compiled   time.Time // after Document.Compile
	firstEvent time.Time // the t=0 marker event

	// windowWall[k], windowCPU[k] and windowPkts[k] are window k's
	// wall nanoseconds, the process's CPU nanoseconds and the packets
	// the receive port counted in it.
	windowWall []int64
	windowCPU  []int64
	windowPkts []uint64

	sched     sim.SchedStats
	memBefore runtime.MemStats
	memAfter  runtime.MemStats
	heapPeak  uint64
	peakRSS   uint64 // bytes, the process's peak RSS when the execution ended

	tr        *tracer
	root      int32
	prefillNS int64 // traced variants that reach the pool prefill
	// Span aggregates of a traced execution, per span name.
	self, total [numSpanNames]int64
	calls       [numSpanNames]uint64

	report *scenario.Report
}

// delivered is the number of packets the receive port counted over
// all windows.
func (ex *execution) delivered() uint64 {
	var n uint64
	for _, p := range ex.windowPkts {
		n += p
	}
	return n
}

func (ex *execution) setupSeconds() float64   { return ex.firstEvent.Sub(ex.start).Seconds() }
func (ex *execution) compileSeconds() float64 { return ex.compiled.Sub(ex.start).Seconds() }
func (ex *execution) buildSeconds() float64   { return ex.firstEvent.Sub(ex.compiled).Seconds() }

// harness owns the benchmark-registered scenarios; cur is the
// execution the next scenario.Execute call belongs to.
type harness struct {
	specDir string
	cur     *execution
	// lastSpans are the spans of the latest traced execution; earlier
	// executions keep only their aggregates.
	lastSpans []span
}

// benchScenario is the benchmark's registered stand-in for a workload:
// it schedules the measurement events onto the Env's engine from
// outside, then runs either the registered scenario the spec names or,
// in traced executions, the workload's traced variant on the same Env.
type benchScenario struct {
	w *workload
	h *harness
}

func benchName(w *workload) string { return "perfbench/" + w.name }

func (b *benchScenario) Name() string { return benchName(b.w) }
func (b *benchScenario) Describe() string {
	return "benchmark instrumentation around the " + b.w.name + " workload"
}
func (b *benchScenario) DefaultSpec() scenario.Spec { return b.inner().DefaultSpec() }

func (b *benchScenario) inner() scenario.Scenario {
	sc, ok := scenario.Get(b.w.scenario)
	if !ok {
		panic("perfbench: scenario " + b.w.scenario + " is not registered")
	}
	return sc
}

func (b *benchScenario) Run(env *scenario.Env) (*scenario.Report, error) {
	ex := b.h.cur
	ex.instrument(env)
	var (
		rep *scenario.Report
		err error
	)
	if ex.mode == modeTraced && b.w.traced != nil {
		rep, err = b.w.traced(env, ex)
	} else {
		rep, err = b.inner().Run(env)
	}
	if ex.tr != nil {
		ex.tr.end(ex.root)
	}
	ex.sched = env.App().Eng.SchedStats()
	if ex.mode == modeRuntime {
		runtime.ReadMemStats(&ex.memAfter)
	}
	return rep, err
}

// heapMetric is sampled at every window edge of modeRuntime executions.
const heapMetric = "/memory/classes/heap/objects:bytes"

// instrument schedules, from outside the scenario, a marker event at
// the current (start) instant — the first simulated event, which ends
// set-up — and one tick at the end of every window, which reads the
// wall clock and the receive port's packet counter. Neither touches
// model state, so the report is unchanged by them.
func (ex *execution) instrument(env *scenario.Env) {
	eng := env.App().Eng
	rx := env.RX()
	n := int(env.Spec.Runtime / ex.window)
	ex.windowWall = make([]int64, 0, n)
	ex.windowCPU = make([]int64, 0, n)
	ex.windowPkts = make([]uint64, 0, n)
	heap := []metrics.Sample{{Name: heapMetric}}

	var last time.Time
	var lastCPU int64
	var lastRx uint64
	eng.Schedule(eng.Now(), func() {
		if ex.mode == modeRuntime {
			runtime.ReadMemStats(&ex.memBefore)
		}
		ex.firstEvent = time.Now()
		last, lastCPU = ex.firstEvent, processCPU()
		lastRx = rx.CounterSnapshot().RxPackets
		if ex.tr != nil {
			ex.root = ex.tr.begin(spanSimRun)
		}
	})
	var tick func()
	tick = func() {
		now, cpu := time.Now(), processCPU()
		got := rx.CounterSnapshot().RxPackets
		ex.windowWall = append(ex.windowWall, int64(now.Sub(last)))
		ex.windowCPU = append(ex.windowCPU, cpu-lastCPU)
		ex.windowPkts = append(ex.windowPkts, got-lastRx)
		last, lastCPU, lastRx = now, cpu, got
		if ex.mode == modeRuntime {
			metrics.Read(heap)
			if v := heap[0].Value.Uint64(); v > ex.heapPeak {
				ex.heapPeak = v
			}
		}
		if len(ex.windowWall) < n {
			eng.ScheduleAfter(ex.window, tick)
		}
	}
	eng.Schedule(eng.Now().Add(ex.window), tick)
}

// execute runs the workload once with the given seed.
func (h *harness) execute(w *workload, seed int64, m mode) (*execution, error) {
	// Start every execution from the same, empty heap with its memory
	// handed back to the OS, as a fresh `moongen run` process would.
	debug.FreeOSMemory()
	ex := &execution{mode: m}
	if m == modeTraced {
		ex.tr = newTracer()
	}
	h.cur = ex
	defer func() { h.cur = nil }()

	ex.start = time.Now()
	doc, err := spec.Load(filepath.Join(h.specDir, w.specFile))
	if err != nil {
		return nil, err
	}
	name, sp, err := doc.Compile()
	if err != nil {
		return nil, err
	}
	ex.compiled = time.Now()
	if name != w.scenario {
		return nil, fmt.Errorf("%s composes scenario %q, want %q", w.specFile, name, w.scenario)
	}
	if sp.Runtime%windowsPerExecution != 0 {
		return nil, fmt.Errorf("%s: runtime %v does not split into %d equal windows", w.specFile, sp.Runtime, windowsPerExecution)
	}
	ex.window = sp.Runtime / windowsPerExecution
	sp.Seed = seed
	if m == modeTraced {
		// One telemetry window over the whole run: the flow table's
		// health columns are only reachable through the recorder.
		sp.TelemetryInterval = sp.Runtime
	}
	rep, err := scenario.Execute(benchName(w), sp, nil)
	if err != nil {
		return nil, err
	}
	if len(ex.windowWall) != int(sp.Runtime/ex.window) {
		return nil, fmt.Errorf("recorded %d windows, want %d", len(ex.windowWall), sp.Runtime/ex.window)
	}
	ex.report = rep
	if ex.tr != nil {
		ex.self = selfTimes(ex.tr.spans)
		ex.total, ex.calls = totalTimes(ex.tr.spans)
		h.lastSpans, ex.tr.spans = ex.tr.spans, nil
	}
	if ex.peakRSS, err = peakRSS(); err != nil {
		return nil, err
	}
	return ex, nil
}

// processCPU returns the CPU time the process has used, in
// nanoseconds. Unlike wall time it leaves out time the hypervisor ran
// other guests on this one's CPU (steal).
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSS reads the process's peak resident set size in bytes (VmHWM
// in /proc/self/status).
func peakRSS() (uint64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}
