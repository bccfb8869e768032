package core

import (
	"math"
	"testing"

	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/rate"
	"repro/internal/sim"
	"repro/internal/wire"
)

func udpPrefill(size int) func(m *mempool.Mbuf) {
	return func(m *mempool.Mbuf) {
		p := proto.UDPPacket{B: m.Data[:size]}
		p.Fill(proto.UDPPacketFill{
			PktLength: size,
			EthSrc:    proto.MustMAC("02:00:00:00:00:01"),
			EthDst:    proto.MustMAC("10:11:12:13:14:15"),
			IPSrc:     proto.MustIPv4("10.0.0.1"),
			IPDst:     proto.MustIPv4("192.168.1.1"),
			UDPSrc:    1234,
			UDPDst:    42,
		})
	}
}

func TestAppTaskLifecycle(t *testing.T) {
	app := NewApp(1)
	ran := 0
	app.LaunchTask("a", func(task *Task) {
		for task.Running() {
			ran++
			task.Sleep(sim.Millisecond)
		}
	})
	app.RunFor(10 * sim.Millisecond)
	if ran != 10 {
		t.Fatalf("task ran %d iterations", ran)
	}
}

func TestPipe(t *testing.T) {
	app := NewApp(2)
	pipe := NewPipe(4)
	var got []int
	app.LaunchTask("producer", func(task *Task) {
		for i := 0; i < 100; i++ {
			if !pipe.Send(task, i) {
				return
			}
		}
	})
	app.LaunchTask("consumer", func(task *Task) {
		for len(got) < 100 && task.Running() {
			v, ok := pipe.Recv(task)
			if !ok {
				return
			}
			got = append(got, v.(int))
		}
	})
	app.RunFor(sim.Second)
	if len(got) != 100 {
		t.Fatalf("consumer got %d values", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}

func TestUDPFloodLineRate(t *testing.T) {
	app := NewApp(3)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)

	srcs := map[proto.IPv4]bool{}
	valid := 0
	rx.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool {
		p := proto.UDPPacket{B: f.Data}
		if !p.VerifyChecksums() {
			t.Error("flood packet failed checksum verification")
		}
		srcs[p.IP().Src()] = true
		valid++
		return true
	})

	const pktSize = 60
	pool := CreateMemPool(4096, udpPrefill(pktSize))
	flood := &UDPFlood{
		Queue:   tx.GetTxQueue(0),
		PktSize: pktSize,
		BaseIP:  proto.MustIPv4("10.0.0.1"),
		Pool:    pool,
	}
	app.LaunchTask("loadSlave", flood.Run)
	const runFor = 5 * sim.Millisecond
	var atStop uint64
	app.Eng.Schedule(sim.Time(runFor), func() { atStop = tx.GetStats().TxPackets })
	app.RunFor(runFor)

	pps := float64(atStop) / sim.Duration(runFor).Seconds()
	if math.Abs(pps-14.88e6) > 0.05e6 {
		t.Fatalf("flood rate = %.2f Mpps", pps/1e6)
	}
	// 256 distinct randomized source addresses (§5.2 workload).
	if len(srcs) < 250 || len(srcs) > 256 {
		t.Fatalf("saw %d distinct source IPs", len(srcs))
	}
}

func TestTimestamperLatency(t *testing.T) {
	app := NewApp(4)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.Chip82599, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.Chip82599, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseSR, 2)

	ts := NewTimestamper(tx.GetTxQueue(0), rx.Port)
	var h interface {
		Count() uint64
		Mean() sim.Duration
	}
	app.LaunchTask("timestamper", func(task *Task) {
		h = ts.MeasureLatency(task, 200, 0)
	})
	app.RunFor(sim.Second)
	if h.Count() != 200 {
		t.Fatalf("measured %d probes (lost %d)", h.Count(), ts.Lost)
	}
	// Fiber 2 m: ~320 ns, quantized to the 82599's 12.8 ns timer.
	mean := h.Mean().Nanoseconds()
	if math.Abs(mean-320) > 13 {
		t.Fatalf("mean latency = %.1f ns, want ~320", mean)
	}
}

// TestTimestamperWithDrift: per-probe resynchronization keeps
// measurements accurate despite the worst-case 35 µs/s drift (§6.3).
func TestTimestamperWithDrift(t *testing.T) {
	app := NewApp(5)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1, DriftPPM: 35})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 10)

	ts := NewTimestamper(tx.GetTxQueue(0), rx.Port)
	var mean float64
	app.LaunchTask("timestamper", func(task *Task) {
		h := ts.MeasureLatency(task, 300, 10*sim.Microsecond)
		mean = h.Mean().Nanoseconds()
	})
	app.RunFor(sim.Second)
	// Copper 10 m: ~2195 ns (Table 3), despite the drifting clock.
	if math.Abs(mean-2195.2) > 15 {
		t.Fatalf("mean latency with drift = %.1f ns, want ~2195", mean)
	}
}

func TestTimestamperUDPTooSmall(t *testing.T) {
	app := NewApp(6)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)

	ts := NewTimestamper(tx.GetTxQueue(0), rx.Port)
	ts.UDP = true
	ts.PktSize = 70 // below the 80-byte UDP PTP floor
	ts.Timeout = 100 * sim.Microsecond
	app.LaunchTask("timestamper", func(task *Task) {
		if _, ok := ts.Probe(task); ok {
			t.Error("undersized UDP probe produced a timestamp")
		}
	})
	app.RunFor(10 * sim.Millisecond)
	if ts.Lost != 1 {
		t.Fatalf("lost = %d", ts.Lost)
	}
}

// TestGapTxExactCBR: on a jitter-free fiber path, CRC-gap CBR produces
// *exact* inter-arrival times — the §8 headline property.
func TestGapTxExactCBR(t *testing.T) {
	app := NewApp(7)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.Chip82599, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.Chip82599, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseSR, 2)

	var arrivals []sim.Time
	rx.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool {
		arrivals = append(arrivals, at)
		return true
	})

	g := &GapTx{
		Queue:   tx.GetTxQueue(0),
		Pattern: rate.NewCBRPPS(1e6),
		PktSize: 60,
		Fill:    func(m *mempool.Mbuf, i uint64) { udpPrefill(60)(m) },
	}
	app.LaunchTask("gaptx", g.Run)
	app.RunFor(10 * sim.Millisecond)

	if len(arrivals) < 5000 {
		t.Fatalf("only %d valid arrivals", len(arrivals))
	}
	for i := 1; i < len(arrivals); i++ {
		if gap := arrivals[i].Sub(arrivals[i-1]); gap != sim.Microsecond {
			t.Fatalf("gap %d = %v, want exactly 1us", i, gap)
		}
	}
	// The receiving NIC saw the fillers only as CRC errors.
	st := rx.GetStats()
	if st.RxCRCErrors == 0 {
		t.Fatal("no filler frames observed")
	}
	if st.RxCRCErrors != g.Fillers {
		t.Fatalf("fillers sent %d, dropped %d", g.Fillers, st.RxCRCErrors)
	}
}

// TestGapTxPoissonAccuracy: the Poisson pattern's average rate is
// accurate even though sub-minimum gaps are approximated (§8.4).
func TestGapTxPoissonAccuracy(t *testing.T) {
	app := NewApp(8)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)

	count := 0
	rx.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool { count++; return true })

	const target = 2e6
	g := &GapTx{
		Queue:   tx.GetTxQueue(0),
		Pattern: rate.NewPoissonPPS(target),
		PktSize: 60,
		Fill:    func(m *mempool.Mbuf, i uint64) { udpPrefill(60)(m) },
	}
	app.LaunchTask("gaptx", g.Run)
	const runFor = 20 * sim.Millisecond
	atStop := 0
	app.Eng.Schedule(sim.Time(runFor), func() { atStop = count })
	app.RunFor(runFor)

	got := float64(atStop) / sim.Duration(runFor).Seconds()
	if math.Abs(got-target)/target > 0.01 {
		t.Fatalf("poisson rate = %.3f Mpps, want 2", got/1e6)
	}
	if g.SkippedGaps == 0 {
		t.Fatal("expected some sub-minimum gaps at 2 Mpps Poisson")
	}
}

// TestGapTxSaturatesWire: with CRC-gap control the wire itself is
// always full (real + filler bytes = line rate).
func TestGapTxSaturatesWire(t *testing.T) {
	app := NewApp(9)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)
	rx.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool { return true })

	g := &GapTx{
		Queue:   tx.GetTxQueue(0),
		Pattern: rate.NewCBRPPS(500e3),
		PktSize: 60,
	}
	app.LaunchTask("gaptx", g.Run)
	app.RunFor(5 * sim.Millisecond)
	st := tx.GetStats()
	wireBytes := st.TxBytes + uint64(st.TxPackets)*(proto.FCSLen+proto.WireOverhead)
	util := float64(wireBytes*8) / (10e9 * sim.Duration(5*sim.Millisecond).Seconds())
	if util < 0.99 {
		t.Fatalf("wire utilization = %.3f, want ~1 (saturated)", util)
	}
}

func TestHWRateTx(t *testing.T) {
	app := NewApp(10)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)
	count := 0
	rx.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool { count++; return true })

	h := &HWRateTx{Queue: tx.GetTxQueue(0), PPS: 1e6, PktSize: 60}
	app.LaunchTask("hwtx", h.Run)
	const runFor = 10 * sim.Millisecond
	atStop := 0
	app.Eng.Schedule(sim.Time(runFor), func() { atStop = count })
	app.RunFor(runFor)
	got := float64(atStop) / sim.Duration(runFor).Seconds()
	if math.Abs(got-1e6)/1e6 > 0.005 {
		t.Fatalf("hw cbr rate = %.0f", got)
	}
}

func TestPushTxFollowsPattern(t *testing.T) {
	app := NewApp(11)
	tx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)
	count := 0
	rx.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool { count++; return true })

	p := &PushTx{Queue: tx.GetTxQueue(0), Pattern: rate.NewCBRPPS(500e3), PktSize: 60}
	p.Launch(app)
	const runFor = 10 * sim.Millisecond
	atStop := 0
	app.Eng.Schedule(sim.Time(runFor), func() { atStop = count })
	app.RunFor(runFor)
	got := float64(atStop) / sim.Duration(runFor).Seconds()
	if math.Abs(got-500e3)/500e3 > 0.01 {
		t.Fatalf("push rate = %.0f", got)
	}
}

func TestOffloadHelpers(t *testing.T) {
	pool := mempool.New(mempool.Config{Count: 8})
	bufs := make([]*mempool.Mbuf, 4)
	pool.AllocBatch(bufs, 60)
	OffloadUDPChecksums(bufs, 2)
	if !bufs[0].TxMeta.OffloadUDPChecksum || !bufs[0].TxMeta.OffloadIPChecksum {
		t.Fatal("udp offload flags not set")
	}
	if bufs[2].TxMeta.OffloadUDPChecksum {
		t.Fatal("offload flag set beyond n")
	}
	OffloadTCPChecksums(bufs[2:], 1)
	if !bufs[2].TxMeta.OffloadTCPChecksum {
		t.Fatal("tcp offload flag not set")
	}
	OffloadIPChecksums(bufs[3:], 1)
	if !bufs[3].TxMeta.OffloadIPChecksum || bufs[3].TxMeta.OffloadUDPChecksum {
		t.Fatal("ip-only offload wrong")
	}
	FreeBatch(bufs, 4)
	if pool.Available() != 8 {
		t.Fatal("FreeBatch did not return buffers")
	}
}
