package experiments

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/multicore"
	"repro/internal/nic"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/wire"
)

// MulticoreScalingResult is Figure 4: real engine shards (one goroutine
// per modeled core), one 10 GbE port pair, mempool and cache per core,
// and the per-shard packet counts summed in shard order.
type MulticoreScalingResult struct {
	Table
	// Mpps[i] is the merged rate with i+1 cores at 2 GHz (wire-capped:
	// the cost model sustains more than line rate, so every core pegs
	// its port — Figure 4's regime).
	Mpps []float64
	// MppsLow[i] is the same bed at 1.2 GHz, where the cost model is
	// the bottleneck and scaling is linear below the wire-rate ceiling.
	MppsLow []float64
	// Predicted[i]/PredictedLow[i] are the cost-model predictions
	// (i+1 cores times min(model rate, per-port line rate)).
	Predicted    []float64
	PredictedLow []float64
	// LineRateMpps is the per-port (= per-core) wire-rate ceiling.
	LineRateMpps float64
	// Simulated is the total modeled time covered (one measurement
	// window per series point; a point's shards run concurrently and
	// model the same window, so they count once). wall/Simulated is
	// the bed's cost per simulated second.
	Simulated sim.Duration
}

// runMulticorePoint measures one (cores, freq) point: multicore.Run
// gives every modeled core its own engine and port pair running the
// single-core paced load, and the per-shard packet counts add up.
func runMulticorePoint(scale Scale, seed int64, cores int, w cpu.Workload, freq cpu.Freq) float64 {
	pkts := make([]uint64, cores)
	_ = multicore.Run(cores, seed, func(s *multicore.Shard) error {
		queues := scenario.BuildPortPairs(s.App, nic.ChipX540, 1, 1)
		pl := &pacedLoad{cores: 1, freq: freq, workload: w, pktSize: 60, queues: queues}
		pkts[s.ID], _ = pl.run(s.App, scale.Window)
		return nil
	})
	var total uint64
	for _, p := range pkts {
		total += p
	}
	return float64(total) / (scale.Window - scale.Window/4).Seconds() / 1e6
}

// RunMulticoreScaling reproduces Figure 4: throughput versus core count
// with one 10 GbE port per core, each core a multicore shard. At 2 GHz
// the simple UDP workload outruns the wire, so every core sits at the
// per-port wire-rate ceiling and the total climbs linearly to the
// paper's 178.5 Mpps at 12 cores; at 1.2 GHz the cost model is the
// bottleneck and the same bed scales linearly below the ceiling. Both
// series are compared against the cycle-cost prediction; a point's
// per-core rate is Mpps[i]/(i+1).
func RunMulticoreScaling(scale Scale, seed int64) *MulticoreScalingResult {
	const maxCores = 12
	w := cpu.SimpleUDPWorkload
	hi, lo := 2*cpu.GHz, 1.2*cpu.GHz
	res := &MulticoreScalingResult{}
	res.Title = "Figure 4: multi-core scaling, one engine shard and 10GbE port per core"
	res.Columns = []string{"Mpps @2GHz", "pred @2GHz", "Mpps @1.2GHz", "pred @1.2GHz"}
	res.LineRateMpps = wire.LineRatePPS(wire.Speed10G, 64) / 1e6

	perCore := func(f cpu.Freq) float64 {
		p := w.PPS(f) / 1e6
		if p > res.LineRateMpps {
			p = res.LineRateMpps
		}
		return p
	}
	for cores := 1; cores <= maxCores; cores++ {
		mhi := runMulticorePoint(scale, seed+int64(cores), cores, w, hi)
		mlo := runMulticorePoint(scale, seed+100+int64(cores), cores, w, lo)
		res.Simulated += 2 * scale.Window
		res.Mpps = append(res.Mpps, mhi)
		res.MppsLow = append(res.MppsLow, mlo)
		res.Predicted = append(res.Predicted, float64(cores)*perCore(hi))
		res.PredictedLow = append(res.PredictedLow, float64(cores)*perCore(lo))
		res.Rows = append(res.Rows, Row{
			Label:  fmt.Sprintf("%d cores", cores),
			Values: []float64{mhi, float64(cores) * perCore(hi), mlo, float64(cores) * perCore(lo)},
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("per-port wire-rate ceiling: %.2f Mpps; paper: 178.5 Mpps at 120 Gbit/s with 12 cores", res.LineRateMpps),
		"shards are real goroutines: one deterministic engine, mempool cache and port pair per modeled core")
	return res
}
