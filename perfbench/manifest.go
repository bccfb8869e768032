package main

import (
	"bytes"
	"encoding/json"
)

// metricDef declares one reported metric. Bound is the share of the
// parent commit's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures.
const runSeconds = 30

// endToEnd are the metrics a user running a scenario sees, measured
// with tracing off. Time per packet is the process's CPU time: the
// simulator is single-threaded and never waits, so on a dedicated host
// that is its wall time, while on a shared VM it leaves out the time
// the hypervisor steals (measured at up to a quarter of a CPU, and
// stalls of milliseconds). Set-up time gets the largest bound, so work
// moved into set-up shows.
//
// The one time-per-packet figure gated is the p95 of the run's windows
// (gatedLevel). On a shared 2-vCPU Xeon VM, all four workloads run
// about 1.5x slower for stretches of 5-20 s while the host is busy,
// and one 25 s run held anywhere from none to most of such a stretch. Over five runs of each workload in that state, the
// mean per packet spread 13-26% and the window p99 9-24% (it falls
// among a handful of flow-table growth and GC windows on churn-1k),
// while the p95 spread 6-12%. A slower program moves the p95 as it
// moves the mean: the slowest twentieth of windows still runs the
// same code. The mean, the median, the p99 and the highest ten-beyond
// percentile are printed, not gated.
var endToEnd = []metricDef{
	{Name: "cpu_ns_per_pkt_p95", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// gatedLevel is the percentile of the run's windows that
// cpu_ns_per_pkt_p95 reports.
const gatedLevel = 95

// perLayer are the traced run's metrics, per delivered packet unless
// the unit says otherwise. Layers a workload does not reach from
// outside report 0.
var perLayer = []metricDef{
	{Name: "sim.engine_self_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "sim.events_per_pkt", Unit: "1/pkt", Better: "lower"},
	{Name: "sim.wheel_promotions_per_pkt", Unit: "1/pkt", Better: "lower"},
	{Name: "sim.max_slot_depth", Unit: "count", Better: "lower"},
	{Name: "mempool.alloc_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "mempool.free_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "mempool.alloc_short_frac", Unit: "ratio", Better: "lower"},
	{Name: "mempool.prefill_s", Unit: "s", Better: "lower"},
	{Name: "proto.fill_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "nic.tx_submit_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "nic.tx_short_send_frac", Unit: "ratio", Better: "lower"},
	{Name: "nic.rx_recv_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "nic.rx_empty_poll_frac", Unit: "ratio", Better: "lower"},
	{Name: "nic.rx_missed", Unit: "count", Better: "lower"},
	{Name: "nic.rx_crc_dropped", Unit: "count", Better: "lower"},
	{Name: "flow.live", Unit: "count", Better: "higher"},
	{Name: "flow.table_load_pm", Unit: "permille", Better: "higher"},
	{Name: "flow.table_probe_max", Unit: "count", Better: "lower"},
	{Name: "flow.bytes_per_flow", Unit: "B", Better: "lower"},
	{Name: "rate.next_gap_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "rate.fillers_per_pkt", Unit: "1/pkt", Better: "lower"},
	{Name: "core.probe_ns", Unit: "ns", Better: "lower"},
	{Name: "core.probes_lost", Unit: "count", Better: "lower"},
	{Name: "dut.interrupts_per_pkt", Unit: "1/pkt", Better: "lower"},
	{Name: "dut.dropped", Unit: "count", Better: "lower"},
	{Name: "go.allocs_per_pkt", Unit: "1/pkt", Better: "lower"},
	{Name: "go.gc_count", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "go.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "spec.compile_s", Unit: "s", Better: "lower"},
	{Name: "scenario.build_s", Unit: "s", Better: "lower"},
	{Name: "trace.residual_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_ns_per_pkt", Unit: "ns", Better: "lower"},
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []metricDef        `json:"end_to_end"`
	PerLayer   []metricDef        `json:"per_layer"`
}

// benchmarkJSON renders BENCHMARK.json from the definitions above, so
// the file and the program cannot drift apart.
func benchmarkJSON() []byte {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.name, Why: w.why})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(m); err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return buf.Bytes()
}
