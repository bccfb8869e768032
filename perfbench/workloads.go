package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/rate"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wire"
)

// workload is one benchmark input: a spec file owned by the benchmark,
// the registered scenario it composes, a check of its simulated
// output and, where the workload's loop is built from public calls,
// a traced variant that records spans around those calls.
type workload struct {
	name     string
	why      string
	specFile string
	scenario string
	check    func(r *scenario.Report) error
	// traced runs the workload on env with spans around its public
	// calls; nil traces only the run as a whole (the loop is private
	// to internal/scenario, so its time stays in the engine's self
	// time).
	traced func(env *scenario.Env, ex *execution) (*scenario.Report, error)
}

var workloads = []*workload{
	{
		name:     "flood-64b",
		why:      "paper headline: 64 B line-rate flood, per-packet datapath cost dominates; flow tracker bypassed (control for flow-layer changes)",
		specFile: "flood-64b.yaml",
		scenario: "flood",
		check:    checkFlood,
		traced:   tracedFlood,
	},
	{
		name:     "overload-4flow",
		why:      "20 Mpps slot grid onto a 14.88 Mpps wire: one proc wake per slot, tracker lookups and latency histograms on 4 resident flows",
		specFile: "overload-4flow.yaml",
		scenario: "loss-overload",
		check:    checkOverload,
	},
	{
		name:     "churn-1k",
		why:      "1024 live flows x 4-packet lifetimes at 10 Mpps: flow-table insert and growth, the write side of the flow layer",
		specFile: "churn-1k.yaml",
		scenario: "churn",
		check:    checkChurn,
	},
	{
		name:     "poisson-dut",
		why:      "1 Mpps Poisson via CRC-gap fillers through the DuT with 1000 timestamped probes: the only path through rate, dut and ptpclk",
		specFile: "poisson-dut.yaml",
		scenario: "poisson",
		check:    checkPoissonDuT,
		traced:   tracedPoisson,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// row returns the value of the report row with the given label.
func row(r *scenario.Report, label string) (float64, error) {
	for _, x := range r.Rows {
		if x.Label == label {
			return x.Value, nil
		}
	}
	return 0, fmt.Errorf("report has no %q row", label)
}

// rows returns the values of several report rows, failing on the
// first missing one.
func rows(r *scenario.Report, labels ...string) ([]uint64, error) {
	out := make([]uint64, len(labels))
	for i, l := range labels {
		v, err := row(r, l)
		if err != nil {
			return nil, err
		}
		out[i] = uint64(v)
	}
	return out, nil
}

// --- output checks -----------------------------------------------------

func checkFlood(r *scenario.Report) error {
	line := wire.LineRatePPS(wire.Speed10G, 60+proto.FCSLen)
	if got := r.RxMpps * 1e6; math.Abs(got-line) > 0.001*line {
		return fmt.Errorf("rx %.0f pps, want line rate %.0f pps within 0.1%%", got, line)
	}
	if r.RxMissed != 0 {
		return fmt.Errorf("%d frames missed at the receive queue", r.RxMissed)
	}
	return nil
}

func checkOverload(r *scenario.Report) error {
	v, err := rows(r, "rx frames attributed", "slots tail-dropped (overload)")
	if err != nil {
		return err
	}
	attributed, dropped := v[0], v[1]
	var rx, lost uint64
	for _, f := range r.Flows {
		rx += f.RxPackets
		lost += f.Lost
		if f.RxPackets != f.TxPackets {
			return fmt.Errorf("flow %s: sent %d, received %d", f.Name, f.TxPackets, f.RxPackets)
		}
		if f.Reordered != 0 || f.Duplicates != 0 {
			return fmt.Errorf("flow %s: %d reordered, %d duplicates", f.Name, f.Reordered, f.Duplicates)
		}
	}
	if rx != attributed {
		return fmt.Errorf("per-flow rx sums to %d, sink received %d", rx, attributed)
	}
	// A receiver sees a dropped slot as loss only once a later packet
	// of the same flow arrives, so the drops after each flow's last
	// delivered packet stay invisible. They lie at the very end of the
	// run: at most a thousandth of all drops.
	if lost > dropped || dropped-lost > dropped/1000 {
		return fmt.Errorf("flows lost %d packets, gate tail-dropped %d slots", lost, dropped)
	}
	return nil
}

func checkChurn(r *scenario.Report) error {
	v, err := rows(r, "flows started (tx)", "flows tracked (rx)", "seq lost", "seq reordered", "seq duplicates")
	if err != nil {
		return err
	}
	if v[0] != v[1] {
		return fmt.Errorf("%d flows started, %d tracked", v[0], v[1])
	}
	if v[2]+v[3]+v[4] != 0 {
		return fmt.Errorf("lost %d, reordered %d, duplicates %d", v[2], v[3], v[4])
	}
	return nil
}

func checkPoissonDuT(r *scenario.Report) error {
	v, err := rows(r, "DuT forwarded", "DuT dropped")
	if err != nil {
		return err
	}
	if len(r.Flows) != 1 {
		return fmt.Errorf("%d flows in the report, want 1", len(r.Flows))
	}
	if r.Latency == nil || r.Latency.Count() == 0 {
		return fmt.Errorf("no latency probe was delivered")
	}
	// Every real frame — load and probes — reaches the DuT and is
	// either forwarded or dropped there.
	real := r.Flows[0].TxPackets + r.Latency.Count() + r.LostProbes
	if v[0]+v[1] != real {
		return fmt.Errorf("DuT forwarded %d + dropped %d, generator sent %d real frames", v[0], v[1], real)
	}
	return nil
}

// --- traced variants ----------------------------------------------------

// backoff mirrors the busy-poll interval of core's blocking send and
// allocation helpers, which the traced flood loop re-states call by
// call.
const backoff = sim.Microsecond

// tracedFlood is the flood scenario (core.UDPFlood plus the Env's
// receive drain) re-stated from the same public calls, with a span
// around each call into mempool, proto and nic.
func tracedFlood(env *scenario.Env, ex *execution) (*scenario.Report, error) {
	tr := ex.tr
	spec := env.Spec
	fl := spec.EffectiveFlows()[0]
	size := spec.FlowSize(fl)
	q := env.TX().GetTxQueue(0)

	id := tr.begin(spanMempoolPrefill)
	pool := env.NewFlowPool(fl, size, 4096)
	tr.end(id)
	ex.prefillNS = tr.spans[id].End - tr.spans[id].Start
	if spec.RateMpps > 0 {
		q.SetRatePPS(spec.RateMpps * 1e6)
	}
	randomize := fl.SrcIPCount
	if randomize <= 0 {
		randomize = 256
	}
	var sent uint64
	env.App().LaunchTask("flood", func(t *core.Task) {
		bufs := pool.BufArray(spec.Batch)
		rng := t.Engine().Rand()
		for t.Running() {
			n := tracedAllocAll(t, tr, bufs, size)
			if n == 0 {
				break
			}
			id := tr.begin(spanProtoFill)
			for _, m := range bufs.Slice(n) {
				pkt := proto.UDPPacket{B: m.Payload()}
				pkt.IP().SetSrc(fl.SrcIP + proto.IPv4(rng.Intn(randomize)))
			}
			core.OffloadUDPChecksums(bufs.Bufs, n)
			tr.end(id)
			sent += uint64(tracedSendAll(t, tr, q, bufs.Bufs[:n]))
		}
	})
	tracedDrainRx(env, tr)

	rep := &scenario.Report{}
	env.LaunchProbes(rep)
	env.RunAndCollect(rep)
	rep.Flows = append(rep.Flows, scenario.FlowReport{Name: fl.Name, TxPackets: sent})
	env.CollectDuT(rep)
	return rep, nil
}

// tracedAllocAll is core.Task.AllocAll with spans.
func tracedAllocAll(t *core.Task, tr *tracer, ba *mempool.BufArray, size int) int {
	for {
		id := tr.begin(spanMempoolAlloc)
		n := ba.Alloc(size)
		tr.end(id)
		tr.allocCalls++
		if n == ba.Len() || !t.Running() {
			return n
		}
		tr.allocShort++
		id = tr.begin(spanMempoolFree)
		for i := 0; i < n; i++ {
			ba.Bufs[i].Free()
			ba.Bufs[i] = nil
		}
		tr.end(id)
		t.Sleep(backoff)
	}
}

// tracedSendAll is core.Task.SendAll with a span per descriptor-ring
// submission.
func tracedSendAll(t *core.Task, tr *tracer, q *nic.TxQueue, bufs []*mempool.Mbuf) int {
	sent := 0
	for {
		if sent == len(bufs) {
			return sent
		}
		if !t.Running() {
			id := tr.begin(spanMempoolFree)
			for _, m := range bufs[sent:] {
				m.Free()
			}
			tr.end(id)
			return sent
		}
		id := tr.begin(spanNicTxSubmit)
		sent += q.Send(bufs[sent:])
		tr.end(id)
		tr.sendCalls++
		if sent < len(bufs) {
			tr.sendShort++
			t.Sleep(backoff)
		}
	}
}

// tracedDrainRx is Env.DrainRx with spans around the receive and the
// buffer release.
func tracedDrainRx(env *scenario.Env, tr *tracer) {
	if env.Spec.UseDuT {
		return // the DuT bed drains the sink itself
	}
	rx := env.RX()
	ctr := env.NewCounter("rx")
	env.App().LaunchTask("rx-drain", func(t *core.Task) {
		bufs := make([]*mempool.Mbuf, 512)
		for t.Running() {
			id := tr.begin(spanNicRxRecv)
			n := rx.GetRxQueue(0).Recv(bufs)
			tr.end(id)
			tr.recvCalls++
			if n > 0 {
				bytes := 0
				for _, m := range bufs[:n] {
					bytes += m.Len
				}
				ctr.Update(n, bytes, t.Now())
				id := tr.begin(spanMempoolFree)
				core.FreeBatch(bufs, n)
				tr.end(id)
			} else {
				tr.recvEmpty++
				t.Sleep(20 * sim.Microsecond)
			}
		}
		ctr.Finalize(t.Now())
	})
}

// spanPattern wraps a rate pattern with a span per gap drawn.
type spanPattern struct {
	rate.Pattern
	tr *tracer
}

func (p spanPattern) NextGap(rng *rand.Rand) sim.Duration {
	id := p.tr.begin(spanRateNextGap)
	d := p.Pattern.NextGap(rng)
	p.tr.end(id)
	return d
}

// tracedPoisson is the poisson scenario driven through core.GapTx with
// a span-wrapped pattern and fill, plus the Env's probe task re-stated
// with a span per Timestamper.Probe. The DuT bed's sink drain is
// private to the bed, so receive time stays in the engine's self time.
func tracedPoisson(env *scenario.Env, ex *execution) (*scenario.Report, error) {
	tr := ex.tr
	spec := env.Spec
	fl := spec.EffectiveFlows()[0]
	size := spec.FlowSize(fl)
	q := env.TX().GetTxQueue(0)
	fill := env.FlowFill(fl, size)
	if spec.Pattern != scenario.PatternPoisson || spec.RateMpps <= 0 {
		return nil, fmt.Errorf("traced poisson variant needs a poisson pattern with a rate, got %v", spec)
	}
	g := &core.GapTx{
		Queue:   q,
		Pattern: spanPattern{Pattern: rate.NewPoissonPPS(spec.RateMpps * 1e6), tr: tr},
		PktSize: size,
		Fill: func(m *mempool.Mbuf, i uint64) {
			id := tr.begin(spanProtoFill)
			fill(m, i)
			tr.end(id)
		},
		Batch: spec.Batch,
	}
	env.App().LaunchTask(string(spec.Pattern), g.Run)
	env.DrainRx()

	rep := &scenario.Report{}
	tracedProbes(env, tr, rep)
	env.RunAndCollect(rep)
	rep.Flows = append(rep.Flows, scenario.FlowReport{Name: fl.Name, TxPackets: g.Sent})
	rep.AddRow("crc-gap filler frames", float64(g.Fillers), "packets")
	rep.AddRow("gaps folded into debt (§8.4)", float64(g.SkippedGaps), "gaps")
	env.CollectDuT(rep)
	return rep, nil
}

// tracedProbes is Env.LaunchProbes with a span per probe. A probe
// waits in simulated time for its timestamps while other tasks run, so
// its span is async: a waiting time, not layer work.
func tracedProbes(env *scenario.Env, tr *tracer, rep *scenario.Report) {
	probes := env.Spec.Probes
	if probes <= 0 {
		return
	}
	ts := env.Timestamper()
	window := env.Spec.Runtime
	warmup := window / 20
	pace := (window - warmup - window/10) / sim.Duration(probes)
	if pace < 0 {
		pace = 0
	}
	env.App().LaunchTask("timestamping", func(t *core.Task) {
		t.Sleep(warmup)
		h := stats.NewHistogram(sim.Nanosecond)
		rng := t.Engine().Rand()
		for i := 0; i < probes && t.Running(); i++ {
			id := tr.beginAsync(spanCoreProbe)
			lat, ok := ts.Probe(t)
			tr.endAsync(id)
			if ok {
				h.Add(lat)
			}
			if pace > 0 {
				dither := sim.Duration(rng.Int63n(int64(8 * sim.Microsecond)))
				t.Sleep(pace + dither)
			}
		}
		rep.Latency = h
		rep.LostProbes = ts.Lost
	})
}
