package scenario

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// This file holds the fault-driven scenarios: the robustness workloads
// built on internal/fault and the flow-tracked slot grid.
//
// linkflap runs a CBR stream through a periodically flapping wire: the
// fault plan is stated in global sim time, every shard applies it to
// its private testbed, and the dropped frames are exactly the global
// slots whose wire timing intersects a down window — so the merged
// per-flow loss and the fault telemetry columns are invariant in Cores
// and Batch.
//
// overload-recover ramps the offered rate above line rate and back on
// a time-varying slot grid (slot j's departure is a pure piecewise-
// linear function of j): the bufferless line-rate gate tail-drops the
// excess during the overload window, and the per-flow loss is split
// across the fault boundary — lost-during-fault (gate rejections in
// the window) versus lost-in-recovery (any remaining sequence gaps).

// linkFlapScenario: periodic link flap under constant-bit-rate load.
type linkFlapScenario struct{ flowSharded }

func (linkFlapScenario) Name() string { return "linkflap" }
func (linkFlapScenario) Describe() string {
	return "periodic link flap under CBR load: wire-boundary drops, per-flow loss, injector recovery telemetry"
}

func (linkFlapScenario) DefaultSpec() Spec {
	return Spec{
		Pattern:  PatternSoftCBR,
		RateMpps: 2,
		PktSize:  60,
		Runtime:  20 * sim.Millisecond,
		Flows:    FlowSet(4),
		// One 1.5 ms down window every 5 ms, starting mid-run. The
		// onsets sit 2.5 ms into each period so they never coincide
		// with the 1 ms telemetry window edges, and at the default
		// 2 Mpps grid every frame's delivery instant keeps > 100 ns of
		// margin to a flap edge — more than the copper PHY's ±32 ns
		// jitter range, so the dropped-frame set is exact at any core
		// count and batch size.
		Faults: fault.Plan{{
			Kind:     fault.LinkFlap,
			At:       2500 * sim.Microsecond,
			Duration: 1500 * sim.Microsecond,
			Period:   5 * sim.Millisecond,
		}},
	}
}

func (linkFlapScenario) Run(env *Env) (*Report, error) {
	tr := flow.NewTracker(flow.Config{Latency: true})
	res, err := launchFlowTx(env, flowTxConfig{})
	if err != nil {
		return nil, err
	}
	sink := env.LaunchFlowSink(tr)

	rep := &Report{}
	env.RunAndCollect(rep)
	collectFlows(rep, env.Spec, res, tr)
	// Every linkflap loss happens at the down wire — the link resumes
	// cleanly and the CBR grid never exceeds line rate, so there is
	// nothing left to lose in recovery. Attribute the whole split
	// explicitly so the report shows it and the merge pins it.
	for fi := range rep.Flows {
		rep.Flows[fi].LostDuringFault = rep.Flows[fi].Lost
	}
	rep.AddRow("rx frames attributed", float64(sink.Received), "packets")
	link := env.TX().Link()
	rep.AddRow("frames dropped at the down wire", float64(link.DroppedFrames), "packets")
	if inj := env.FaultInjector(); inj != nil {
		// Lifecycle facts are identical in every shard (the plan is
		// global), so they travel as a note — merged rows sum, which
		// is right for traffic counters and wrong for plan properties.
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"fault plan: %d link-flap onsets per shard, longest window %.1f ms, final state %s",
			inj.Fired(), float64(inj.MaxRecoveryNS())/1e6, inj.State()))
	}
	return rep, nil
}

// overloadRecoverScenario: offered rate ramps above line rate and back.
type overloadRecoverScenario struct{ flowSharded }

func (overloadRecoverScenario) Name() string { return "overload-recover" }
func (overloadRecoverScenario) Describe() string {
	return "rate ramp above line rate and back: tail drop in the overload window, per-flow loss split across the fault boundary"
}

func (overloadRecoverScenario) DefaultSpec() Spec {
	return Spec{
		Pattern:  PatternSoftCBR, // sharded on the softcbr grid
		RateMpps: 20,             // peak rate; the base rate is half of it
		PktSize:  60,
		Runtime:  20 * sim.Millisecond,
		Flows:    FlowSet(4),
	}
}

func (overloadRecoverScenario) Run(env *Env) (*Report, error) {
	spec := env.Spec
	tick, _, _, _, _, err := slotGrid(spec)
	if err != nil {
		return nil, err
	}
	flows := spec.EffectiveFlows()
	size := spec.FlowSize(flows[0])
	frameWire := wire.FrameTime(env.TX().Speed(), size+proto.FCSLen)

	// The ramp profile: base rate (2× slot spacing) for the first 2/5
	// of the run, peak rate for the middle 1/5, base rate again to the
	// end. Slot j's departure time is a pure piecewise-linear function
	// of the global slot index, so every shard computes the identical
	// grid and the overload window covers the identical slot range at
	// any core count.
	loTick := 2 * tick
	if loTick < frameWire {
		return nil, fmt.Errorf("overload-recover: base rate %.2f Mpps exceeds line rate — halve the peak rate",
			1e6/float64(loTick.Nanoseconds())*1e-6*1e6)
	}
	n1 := uint64(spec.Runtime * 2 / 5 / loTick)
	nov := uint64(spec.Runtime / 5 / tick)
	n2 := n1 + nov
	t1 := sim.Duration(n1) * loTick
	t2 := t1 + sim.Duration(nov)*tick
	slotTime := func(j uint64) sim.Duration {
		switch {
		case j < n1:
			return sim.Duration(j) * loTick
		case j < n2:
			return t1 + sim.Duration(j-n1)*tick
		default:
			return t2 + sim.Duration(j-n2)*loTick
		}
	}
	// The overload window's bufferless line-rate gate, anchored at the
	// window start (the wire is idle there: the base-rate phase leaves
	// more than a frame time of slack per slot).
	gate := admission{tick: int64(tick), frameWire: int64(frameWire)}
	admit := func(j uint64) bool {
		if j < n1 || j >= n2 {
			return true
		}
		return gate.admitted(j - n1)
	}

	tr := flow.NewTracker(flow.Config{Latency: true})
	res, err := launchFlowTx(env, flowTxConfig{admit: admit, slotTime: slotTime})
	if err != nil {
		return nil, err
	}
	sink := env.LaunchFlowSink(tr)

	rep := &Report{}
	env.RunAndCollect(rep)
	collectFlows(rep, spec, res, tr)

	// Split each flow's loss across the fault boundary: gate
	// rejections are the during-fault share (known exactly on the TX
	// side — the gate is a pure function of the slot index), and any
	// remaining receiver-side sequence gaps are losses in recovery.
	var during, recovery uint64
	for fi := range rep.Flows {
		fr := &rep.Flows[fi]
		d := res.overload[fi]
		if fr.Lost < d {
			// A gate rejection only becomes a visible gap once a later
			// packet of the flow arrives; with the recovery phase after
			// the window this is the end-of-run tail at most.
			d = fr.Lost
		}
		fr.LostDuringFault = d
		fr.LostInRecovery = fr.Lost - d
		during += fr.LostDuringFault
		recovery += fr.LostInRecovery
	}
	rep.AddRow("slots tail-dropped in the overload window", float64(during), "slots")
	rep.AddRow("sequence gaps in recovery", float64(recovery), "packets")
	rep.AddRow("rx frames attributed", float64(sink.Received), "packets")
	rep.Notes = append(rep.Notes,
		"ramp model: base rate 2/5 of the run, peak rate 1/5, base rate to the end; slot departures are a pure function of the global slot index")
	return rep, nil
}

func init() {
	Register(linkFlapScenario{})
	Register(overloadRecoverScenario{})
}
