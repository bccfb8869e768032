package main

import (
	"fmt"
	"io"

	"repro/internal/scenario"
)

// reconciled are the span names whose self times add up to the traced
// run's wall time: every span inside sim.run, plus sim.run's own self
// time (the engine and whatever the benchmark cannot reach). The pool
// prefill happens before the first event and the probe is async, so
// neither is part of the sum.
var reconciled = []spanName{
	spanSimRun, spanMempoolAlloc, spanMempoolFree, spanProtoFill,
	spanNicTxSubmit, spanNicRxRecv, spanRateNextGap,
}

// layerTable is a traced run's per-layer result.
type layerTable struct {
	values     map[string]float64
	self       [numSpanNames]float64 // ns per delivered packet
	calls      [numSpanNames]uint64
	sum        float64
	traced     float64 // wall ns per delivered packet, traced executions
	untraced   float64 // the same, untraced executions
	executions int
}

// layerReport derives the per-layer metrics from a traced run: span
// self times and counts from the traced executions; Go runtime figures
// and set-up stages from the untraced ones (tracing allocates its
// spans).
func layerReport(plain, traced []*execution) *layerTable {
	l := &layerTable{values: map[string]float64{}, executions: len(traced)}
	l.traced = perPacket(traced, wallClock)
	l.untraced = perPacket(plain, wallClock)

	var pkts, events, promotions float64
	var maxDepth int
	var selfNS [numSpanNames]int64
	var totalNS [numSpanNames]int64
	var counts callCounts
	var prefill []float64
	for _, ex := range traced {
		pkts += float64(ex.delivered())
		events += float64(ex.sched.EventsProcessed)
		promotions += float64(ex.sched.WheelPromotions)
		maxDepth = max(maxDepth, ex.sched.MaxSlotDepth)
		for i := range selfNS {
			selfNS[i] += ex.self[i]
			totalNS[i] += ex.total[i]
			l.calls[i] += ex.calls[i]
		}
		counts.add(ex.tr.callCounts)
		if ex.calls[spanMempoolPrefill] > 0 {
			prefill = append(prefill, float64(ex.prefillNS)/1e9)
		}
	}
	for i, ns := range selfNS {
		l.self[i] = float64(ns) / pkts
	}
	for _, n := range reconciled {
		l.sum += l.self[n]
	}

	last := traced[len(traced)-1]
	rep := last.report
	lastPkts := float64(last.delivered())
	v := l.values
	v["sim.engine_self_ns_per_pkt"] = l.self[spanSimRun]
	v["sim.events_per_pkt"] = events / pkts
	v["sim.wheel_promotions_per_pkt"] = promotions / pkts
	v["sim.max_slot_depth"] = float64(maxDepth)
	v["mempool.alloc_ns_per_pkt"] = l.self[spanMempoolAlloc]
	v["mempool.free_ns_per_pkt"] = l.self[spanMempoolFree]
	v["mempool.alloc_short_frac"] = frac(counts.allocShort, counts.allocCalls)
	v["mempool.prefill_s"] = 0
	if len(prefill) > 0 {
		v["mempool.prefill_s"] = median(prefill)
	}
	v["proto.fill_ns_per_pkt"] = l.self[spanProtoFill]
	v["nic.tx_submit_ns_per_pkt"] = l.self[spanNicTxSubmit]
	v["nic.tx_short_send_frac"] = frac(counts.sendShort, counts.sendCalls)
	v["nic.rx_recv_ns_per_pkt"] = l.self[spanNicRxRecv]
	v["nic.rx_empty_poll_frac"] = frac(counts.recvEmpty, counts.recvCalls)
	v["nic.rx_missed"] = float64(rep.RxMissed)
	v["nic.rx_crc_dropped"] = float64(rep.RxCRCErrors)
	v["flow.live"] = telemetryLast(rep, "flow.live")
	v["flow.table_load_pm"] = telemetryLast(rep, "flow.table_load_pm")
	v["flow.table_probe_max"] = telemetryLast(rep, "flow.table_probe_max")
	v["flow.bytes_per_flow"] = 0
	if fp, err := row(rep, "tracker footprint (diag)"); err == nil {
		if n, err := row(rep, "flows tracked (rx)"); err == nil && n > 0 {
			v["flow.bytes_per_flow"] = fp / n
		}
	}
	v["rate.next_gap_ns_per_pkt"] = l.self[spanRateNextGap]
	v["rate.fillers_per_pkt"] = rowOrZero(rep, "crc-gap filler frames") / lastPkts
	v["core.probe_ns"] = 0
	if n := l.calls[spanCoreProbe]; n > 0 {
		v["core.probe_ns"] = float64(totalNS[spanCoreProbe]) / float64(n)
	}
	v["core.probes_lost"] = float64(rep.LostProbes)
	v["dut.interrupts_per_pkt"] = rowOrZero(rep, "DuT interrupts") / lastPkts
	v["dut.dropped"] = rowOrZero(rep, "DuT dropped")

	var pktsU, allocs, gcs, pause, heap float64
	for _, ex := range plain {
		pktsU += float64(ex.delivered())
		allocs += float64(ex.memAfter.Mallocs - ex.memBefore.Mallocs)
		gcs += float64(ex.memAfter.NumGC - ex.memBefore.NumGC)
		pause += float64(ex.memAfter.PauseTotalNs - ex.memBefore.PauseTotalNs)
		heap = max(heap, float64(ex.heapPeak))
	}
	v["go.allocs_per_pkt"] = allocs / pktsU
	v["go.gc_count"] = gcs / float64(len(plain))
	v["go.gc_pause_ns_per_pkt"] = pause / pktsU
	v["go.heap_peak_mb"] = heap / (1 << 20)

	compile := make([]float64, len(plain))
	build := make([]float64, len(plain))
	for i, ex := range plain {
		compile[i] = ex.compileSeconds()
		build[i] = ex.buildSeconds()
	}
	v["spec.compile_s"] = median(compile)
	v["scenario.build_s"] = median(build)
	v["trace.residual_ns_per_pkt"] = l.traced - l.sum
	v["trace.overhead_ns_per_pkt"] = l.traced - l.untraced
	return l
}

func frac(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func rowOrZero(r *scenario.Report, label string) float64 {
	v, err := row(r, label)
	if err != nil {
		return 0
	}
	return v
}

// telemetryLast returns a column's value in the last recorded window,
// or 0 when the run has no such column.
func telemetryLast(r *scenario.Report, col string) float64 {
	s := r.Telemetry
	if s == nil || len(s.Rows) == 0 {
		return 0
	}
	for i, c := range s.Cols {
		if c.Name == col {
			return float64(s.Rows[len(s.Rows)-1][i])
		}
	}
	return 0
}

// print renders the reconciliation: each layer's self time per
// delivered packet, their sum (the traced sim.run wall time per
// packet), the residual to the traced p50 and the tracing overhead,
// then every per-layer metric.
func (l *layerTable) print(out io.Writer) {
	fmt.Fprintf(out, "  %-34s %12s %7s %10s\n", "layer (self time)", "ns/pkt", "share", "calls")
	for _, n := range reconciled {
		if l.calls[n] == 0 {
			fmt.Fprintf(out, "  %-34s %12s\n", n, "not reached")
			continue
		}
		fmt.Fprintf(out, "  %-34s %12.1f %6.1f%% %10d\n", n, l.self[n], 100*l.self[n]/l.sum, l.calls[n])
	}
	fmt.Fprintf(out, "  %-34s %12.1f   (traced sim.run wall per delivered packet)\n", "sum of layers", l.sum)
	fmt.Fprintf(out, "  %-34s %12.1f   (traced - sum: window time not under sim.run, less the post-run drain)\n", "residual", l.traced-l.sum)
	fmt.Fprintf(out, "  %-34s %12.1f   (%d executions)\n", "traced wall_ns_per_pkt_mean", l.traced, l.executions)
	fmt.Fprintf(out, "  %-34s %12.1f\n", "untraced wall_ns_per_pkt_mean", l.untraced)
	fmt.Fprintf(out, "  %-34s %12.1f   (traced - untraced)\n", "tracing overhead", l.traced-l.untraced)
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-34s %12.6g %s\n", d.Name, l.values[d.Name], d.Unit)
	}
}
