package core

import (
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/rate"
	"repro/internal/sim"
	"repro/internal/wire"
)

// DefaultTxBatch is the default burst size of the batched TX loops,
// defined as the MAC scheduler's train size so one task burst drains
// in one scheduler event.
const DefaultTxBatch = nic.DefaultTxTrain

// GapTx is the paper's novel software rate control (§8): the wire is
// kept completely saturated; gaps between real packets are filled with
// invalid frames (bad FCS, sometimes sub-minimum length) whose lengths
// define the inter-departure times exactly. Because the transmit queue
// never runs dry, DMA timing is irrelevant — precision is the line's
// byte granularity, 0.8 ns at 10 GbE.
type GapTx struct {
	Queue   *nic.TxQueue
	Pattern rate.Pattern
	// PktSize is the real frame size without FCS.
	PktSize int
	// Fill crafts each real packet (sequence number i).
	Fill func(m *mempool.Mbuf, i uint64)
	// MinFillerWire overrides the 76-byte filler floor (§8.1).
	MinFillerWire int
	// Batch is the reusable burst size (default DefaultTxBatch; 1
	// reproduces per-packet sends). The emission schedule — every
	// departure byte on the wire — is invariant in Batch: batching
	// only groups how frames are handed to the descriptor ring.
	Batch int

	// Sent counts real packets, Fillers invalid ones.
	Sent    uint64
	Fillers uint64
	// SkippedGaps counts gaps below the representable minimum that
	// were folded into later gaps (§8.4).
	SkippedGaps uint64
}

// gapStager shares the buffered-burst mechanics of GapTx.Run: frames
// (real and filler interleaved in emission order) are staged into one
// reusable BufArray and flushed as full bursts, with zero per-packet
// allocations. Buffers come from the engine's shared per-core cache.
type gapStager struct {
	t      *Task
	queue  *nic.TxQueue
	cache  *mempool.Cache
	ba     *mempool.BufArray
	real   []bool   // kind per staged slot, for short-send accounting
	skips  []uint64 // §8.4 delta attributed to a staged real frame
	staged int
	g      *GapTx
}

// flush hands the staged burst to the NIC. On a run-end short send the
// per-kind counters — and the §8.4 skip deltas attributed to unsent
// real frames — are rolled back for the frames that never reached the
// descriptor ring, so the report counts exactly the handed-over
// frames regardless of the batch size.
func (s *gapStager) flush() bool {
	if s.staged == 0 {
		return true
	}
	n := s.t.SendAll(s.queue, s.ba.Bufs[:s.staged])
	for i := n; i < s.staged; i++ {
		if s.real[i] {
			s.g.Sent--
			s.g.SkippedGaps -= s.skips[i]
		} else {
			s.g.Fillers--
		}
	}
	ok := n == s.staged
	s.ba.Clear(s.staged)
	s.staged = 0
	return ok
}

// stage appends one frame to the burst, flushing when full.
func (s *gapStager) stage(m *mempool.Mbuf, real bool) bool {
	s.real[s.staged] = real
	s.skips[s.staged] = 0
	s.ba.Bufs[s.staged] = m
	s.staged++
	if s.staged == len(s.ba.Bufs) {
		return s.flush()
	}
	return true
}

// alloc takes one buffer, flushing the staged burst and backing off
// while the pool is dry (the NIC holds every buffer until transmit
// completion). Returns nil when the run ended.
func (s *gapStager) alloc(size int) *mempool.Mbuf {
	for {
		if m := s.cache.Alloc(size); m != nil {
			return m
		}
		if !s.flush() || !s.t.Running() {
			return nil
		}
		s.t.Sleep(backoff)
	}
}

// Run transmits until the run ends. It must run as its own task.
func (g *GapTx) Run(t *Task) {
	port := g.Queue.Port()
	byteTime := wire.ByteTime(port.Speed())
	filler := rate.NewGapFiller(byteTime)
	if g.MinFillerWire > 0 {
		filler.MinFillerWire = g.MinFillerWire
	}
	batch := g.Batch
	if batch <= 0 {
		batch = DefaultTxBatch
	}
	s := &gapStager{
		t:     t,
		queue: g.Queue,
		cache: t.Cache(),
		ba:    t.Cache().BufArray(batch),
		real:  make([]bool, batch),
		skips: make([]uint64, batch),
		g:     g,
	}
	rng := t.Engine().Rand()
	realWire := int64(g.PktSize + proto.FCSLen + proto.WireOverhead)

	var (
		i     uint64
		fills []int // reused across gaps: FillGap appends into it
	)
	for t.Running() {
		m := s.alloc(g.PktSize)
		if m == nil {
			break
		}
		if g.Fill != nil {
			g.Fill(m, i)
		}
		g.Sent++
		i++
		if !s.stage(m, true) {
			break
		}

		gapBytes := filler.GapToWireBytes(g.Pattern.NextGap(rng)) - realWire
		before := filler.Skipped
		fills = filler.FillGap(fills[:0], gapBytes)
		if delta := filler.Skipped - before; delta > 0 {
			g.SkippedGaps += delta
			if s.staged > 0 && s.ba.Bufs[s.staged-1] == m {
				// The unit's real frame is still staged: attribute the
				// delta to it so a run-end rollback keeps the report
				// batch-invariant.
				s.skips[s.staged-1] = delta
			}
		}
		aborted := false
		for _, wireLen := range fills {
			frameLen := wireLen - proto.FCSLen - proto.WireOverhead
			fm := s.alloc(frameLen)
			if fm == nil {
				aborted = true
				break
			}
			// Filler frames carry a broken FCS so the DuT's NIC
			// drops them in hardware without any software activity.
			proto.EthHdr(fm.Payload()[:proto.EthHdrLen]).Fill(proto.EthFill{
				Src: port.MAC(), Dst: proto.BroadcastMAC, EtherType: 0x0000,
			})
			fm.TxMeta.InvalidCRC = true
			g.Fillers++
			if !s.stage(fm, false) {
				aborted = true
				break
			}
		}
		if aborted {
			break
		}
	}
	s.flush()
}

// PushTx models the classic software rate control of existing packet
// generators (§7.1): push one packet at a time at explicitly chosen
// times and hope the NIC's DMA engine mirrors them onto the wire. The
// Pattern supplies the (jittery) inter-departure process — use
// rate.SoftPush for a Pktgen-DPDK-like generator or rate.Bursty for a
// zsend-like one. The queue must be unshaped: with at most one packet
// in flight, the wire departure tracks the push time.
type PushTx struct {
	Queue   *nic.TxQueue
	Pattern rate.Pattern
	PktSize int
	Fill    func(m *mempool.Mbuf, i uint64)

	Sent uint64
}

// Launch starts the generator on the app's engine; it transmits until
// the run ends. It draws buffers from the app's per-core cache
// (App.TxCache) and its gaps from the engine's random source.
func (p *PushTx) Launch(app *App) {
	cache := app.TxCache()
	rng := app.Eng.Rand()
	var next sim.Time
	app.Eng.Pace(func(now sim.Time) sim.Time {
		next = now.Add(p.Pattern.NextGap(rng))
		return next
	}, func(sim.Time) sim.Time {
		// A dry cache is overload: the generator drops, like the original.
		if m := cache.Alloc(p.PktSize); m != nil {
			if p.Fill != nil {
				p.Fill(m, p.Sent)
			}
			if p.Queue.SendOne(m) {
				p.Sent++
			} else {
				m.Free()
			}
		}
		next = next.Add(p.Pattern.NextGap(rng))
		return next
	})
}

// HWRateTx drives a hardware-rate-controlled queue (§7.2): the queue's
// shaper is configured and the descriptor ring is simply kept full —
// "the software can keep all available queues completely filled and the
// generated timing is up to the NIC".
type HWRateTx struct {
	Queue   *nic.TxQueue
	PPS     float64
	PktSize int
	Fill    func(m *mempool.Mbuf, i uint64)
	// Batch is the reusable burst size (default DefaultTxBatch; 1
	// reproduces per-packet sends).
	Batch int

	// Delay postpones the first send, phase-shifting the shaper grid.
	// Multicore sharding staggers k queues at rate/k by i/rate each so
	// their emissions interleave onto the single-core grid exactly.
	Delay sim.Duration

	Sent uint64
}

// Run transmits until the run ends. It must run as its own task.
func (h *HWRateTx) Run(t *Task) {
	if h.Delay > 0 {
		t.Sleep(h.Delay)
	}
	h.Queue.SetRatePPS(h.PPS)
	batch := h.Batch
	if batch <= 0 {
		batch = DefaultTxBatch
	}
	cache := t.Cache()
	ba := cache.BufArray(batch)
	var i uint64
	for t.Running() {
		n := ba.Alloc(h.PktSize)
		if n == 0 {
			t.Sleep(backoff)
			continue
		}
		if h.Fill != nil {
			for _, m := range ba.Slice(n) {
				h.Fill(m, i)
				i++
			}
		}
		sent := t.SendAll(h.Queue, ba.Bufs[:n])
		h.Sent += uint64(sent)
		ba.Clear(n)
		if sent != n {
			break
		}
	}
}
