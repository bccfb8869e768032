package multicore_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/multicore"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wire"
)

func TestShardSeedStableAndDistinct(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 64; i++ {
		s := multicore.ShardSeed(1, i)
		if s2 := multicore.ShardSeed(1, i); s2 != s {
			t.Fatalf("shard %d seed not stable: %d vs %d", i, s, s2)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("shards %d and %d collide on seed %d", prev, i, s)
		}
		seen[s] = i
	}
	// Different base seeds must not produce shifted copies of the same
	// stream (the flaw of naive base+i derivation).
	if multicore.ShardSeed(1, 1) == multicore.ShardSeed(2, 0) {
		t.Fatal("base 1 shard 1 collides with base 2 shard 0")
	}
}

func TestGroupShards(t *testing.T) {
	ids := make([]int, 4)
	seeds := make([]int64, 4)
	apps := make([]*core.App, 4)
	if err := multicore.Run(4, 7, func(s *multicore.Shard) error {
		ids[s.ID] = s.ID + 1
		seeds[s.ID] = s.Seed
		apps[s.ID] = s.App
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if ids[i] != i+1 {
			t.Fatalf("shard %d never ran", i)
		}
		if seeds[i] != multicore.ShardSeed(7, i) {
			t.Fatalf("shard %d seed = %d", i, seeds[i])
		}
		if apps[i] == nil || apps[i].Eng.Seed() != seeds[i] {
			t.Fatalf("shard %d app not seeded with the shard seed", i)
		}
		for j := 0; j < i; j++ {
			if apps[j] == apps[i] {
				t.Fatalf("shards %d and %d share an app", j, i)
			}
		}
	}
}

// shardLoad builds a generator→sink pair on the shard and floods it
// for window; it returns the NIC's transmitted-packet count.
func shardLoad(s *multicore.Shard, window sim.Duration) uint64 {
	app := s.App
	tx := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 0})
	rx := app.ConfigDevice(core.DeviceConfig{Profile: nic.ChipX540, ID: 1})
	app.ConnectDevices(tx, rx, wire.PHY10GBaseT, 2)
	rx.SetDeliverHook(func(f *wire.Frame, at sim.Time) bool { return true })
	pool := core.CreateMemPool(4096, nil)
	cache := pool.NewCache(256)
	q := tx.GetTxQueue(0)
	app.LaunchTask("tx", func(tk *core.Task) {
		bufs := make([]*mempool.Mbuf, mempool.DefaultBatchSize)
		for tk.Running() {
			n := cache.AllocBatch(bufs, 60)
			if n == 0 {
				tk.Sleep(sim.Microsecond)
				continue
			}
			tk.SendAll(q, bufs[:n])
		}
	})
	app.RunFor(window)
	return tx.GetStats().TxPackets
}

// TestGroupDeterministicAcrossRuns: the same seed yields bit-identical
// per-shard results no matter how the host schedules the goroutines.
func TestGroupDeterministicAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		out := make([]uint64, 4)
		if err := multicore.Run(4, 42, func(s *multicore.Shard) error {
			out[s.ID] = shardLoad(s, sim.Millisecond)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shard %d differs across runs: %d vs %d", i, a[i], b[i])
		}
		if a[i] == 0 {
			t.Fatalf("shard %d transmitted nothing", i)
		}
	}
}

// TestGroupScalesWithShards: k independent line-rate shards deliver k
// times one shard's packets once merged — the Figure 4 execution model.
func TestGroupScalesWithShards(t *testing.T) {
	total := func(k int) uint64 {
		counts := make([]uint64, k)
		_ = multicore.Run(k, 9, func(s *multicore.Shard) error {
			counts[s.ID] = shardLoad(s, sim.Millisecond)
			return nil
		})
		var sum uint64
		for _, c := range counts {
			sum += c
		}
		return sum
	}
	one, four := total(1), total(4)
	if four < 4*one-8 || four > 4*one+8 {
		t.Fatalf("4 shards = %d pkts, want ~4x one shard (%d)", four, one)
	}
}

// TestEachAggregatesErrors: Run reports every failing shard, in shard
// order whatever order the goroutines finished in.
func TestEachAggregatesErrors(t *testing.T) {
	boom := errors.New("boom")
	err := multicore.Run(3, 1, func(s *multicore.Shard) error {
		if s.ID != 1 {
			return fmt.Errorf("shard saw %w", boom)
		}
		return nil
	})
	want := "multicore: shard 0: shard saw boom; shard 2: shard saw boom"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestEachPropagatesPanics(t *testing.T) {
	defer func() {
		r := recover()
		// The re-raised value names the shard and carries its stack.
		if r == nil || !strings.Contains(fmt.Sprint(r), "shard 2: kaboom") || !strings.Contains(fmt.Sprint(r), "goroutine") {
			t.Fatalf("recover = %v", r)
		}
	}()
	_ = multicore.Run(3, 1, func(s *multicore.Shard) error {
		if s.ID == 2 {
			panic("kaboom")
		}
		return nil
	})
}

// TestMergedShardStats ties the subsystem to the stats merge layer:
// per-shard counters merged across k shards describe the union.
func TestMergedShardStats(t *testing.T) {
	counters := make([]*stats.Counter, 4)
	_ = multicore.Run(4, 11, func(s *multicore.Shard) error {
		c := stats.NewCounter(stats.CounterConfig{Name: "tx", Window: 100 * sim.Microsecond})
		pkts := shardLoad(s, sim.Millisecond)
		c.Update(int(pkts), int(pkts)*60, sim.Time(sim.Millisecond))
		c.Finalize(sim.Time(sim.Millisecond))
		counters[s.ID] = c
		return nil
	})
	merged := stats.NewCounter(stats.CounterConfig{Name: "merged", Window: 100 * sim.Microsecond})
	var want uint64
	for _, c := range counters {
		want += c.TotalPackets
		merged.Merge(c)
	}
	if merged.TotalPackets != want || want == 0 {
		t.Fatalf("merged = %d, want %d (> 0)", merged.TotalPackets, want)
	}
}
