package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	var tm Time
	tm = tm.Add(5 * Nanosecond)
	if tm != Time(5000) {
		t.Fatalf("5ns = %d ps, want 5000", tm)
	}
	if d := tm.Sub(Time(1000)); d != 4*Nanosecond {
		t.Fatalf("sub: got %v", d)
	}
	if s := Time(Second).Seconds(); s != 1.0 {
		t.Fatalf("seconds: got %v", s)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{800 * Picosecond, "800ps"},
		{5 * Nanosecond, "5ns"},
		{1500 * Nanosecond, "1.5us"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
		{-5 * Nanosecond, "-5ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d ps: got %q want %q", int64(c.d), got, c.want)
		}
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	if d := FromSeconds(1.5); d != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", d)
	}
	if d := FromNanoseconds(0.8); d != 800*Picosecond {
		t.Fatalf("FromNanoseconds(0.8) = %v", d)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(42, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: order[%d]=%d", i, v)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(100, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(50, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i*100), func() { fired++ })
	}
	n := e.Run(500)
	if n != 5 || fired != 5 {
		t.Fatalf("Run(500) fired %d events (counter %d), want 5", n, fired)
	}
	if e.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", e.Pending())
	}
	// Run advances the clock to the until mark even without events there.
	if e.Now() != 500 {
		t.Fatalf("now = %v, want 500", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	hits := 0
	var rec func()
	rec = func() {
		hits++
		if hits < 10 {
			e.ScheduleAfter(Nanosecond, rec)
		}
	}
	e.ScheduleAfter(0, rec)
	e.RunAll()
	if hits != 10 {
		t.Fatalf("hits = %d", hits)
	}
	if e.Now() != Time(9*Nanosecond) {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var wakes []Time
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10 * Nanosecond)
			wakes = append(wakes, p.Now())
		}
	})
	e.RunAll()
	if len(wakes) != 5 {
		t.Fatalf("wakes = %v", wakes)
	}
	for i, w := range wakes {
		want := Time((i + 1) * 10 * int(Nanosecond))
		if w != want {
			t.Fatalf("wake %d at %v, want %v", i, w, want)
		}
	}
	if e.Procs() != 0 {
		t.Fatalf("live procs = %d after RunAll", e.Procs())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			trace = append(trace, "a")
			p.Sleep(2 * Nanosecond)
		}
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(Nanosecond)
		for i := 0; i < 3; i++ {
			trace = append(trace, "b")
			p.Sleep(2 * Nanosecond)
		}
	})
	e.RunAll()
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcStopTime(t *testing.T) {
	e := NewEngine(1)
	e.SetStopTime(Time(100 * Nanosecond))
	iters := 0
	e.Spawn("loop", func(p *Proc) {
		for p.Running() {
			iters++
			p.Sleep(10 * Nanosecond)
		}
	})
	e.RunAll()
	if iters != 10 {
		t.Fatalf("iterations = %d, want 10", iters)
	}
}

func TestProcYieldFairness(t *testing.T) {
	e := NewEngine(1)
	var trace []int
	for id := 0; id < 3; id++ {
		id := id
		e.Spawn("p", func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, id)
				p.Yield()
			}
		})
	}
	e.RunAll()
	// Round-robin: 0 1 2 0 1 2 0 1 2.
	for i, v := range trace {
		if v != i%3 {
			t.Fatalf("trace = %v", trace)
		}
	}
}

// TestProcPanicReachesCaller checks that a panic inside a process
// surfaces as a recoverable panic from the engine's Run call, that the
// process is marked dead and no longer counted, and that the engine can
// keep running the surviving processes afterwards.
func TestProcPanicReachesCaller(t *testing.T) {
	e := NewEngine(1)
	boom := e.Spawn("boom", func(p *Proc) {
		p.Sleep(Nanosecond)
		panic("boom")
	})
	survivorDone := false
	e.Spawn("survivor", func(p *Proc) {
		p.Sleep(Microsecond)
		survivorDone = true
	})
	if e.Procs() != 2 {
		t.Fatalf("Procs() = %d after two spawns", e.Procs())
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		e.RunAll()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("RunAll recovered %v, want the process's panic value", got)
	}
	if !boom.dead || e.Procs() != 1 {
		t.Fatalf("after the panic: dead=%v Procs()=%d, want dead and 1 live", boom.dead, e.Procs())
	}
	e.RunAll()
	if !survivorDone || e.Procs() != 0 {
		t.Fatalf("survivor done=%v Procs()=%d after resuming the engine", survivorDone, e.Procs())
	}
}

// paceStop is one way a paced run can end mid-grid: arm runs before
// the sender is launched; a non-zero tick makes the sender's own tick
// number tick call Stop.
type paceStop struct {
	arm  func(e *Engine, rec func(string))
	tick int
}

// pacedTrace runs one paced sender, launched at 5 ns from inside an
// event, against background events at the same instants, and returns
// the (time, label) trace and the engine's event count. The sender runs
// through Engine.Pace when paced is set, otherwise through the process
// loop Pace is defined to reproduce. Its deadlines are a 10 ns grid
// with one past deadline (step 3) and one same-instant deadline (step
// 5).
func pacedTrace(paced bool, stop paceStop) ([]string, uint64) {
	e := NewEngine(1)
	var trace []string
	rec := func(label string) {
		trace = append(trace, fmt.Sprintf("%v %s", e.Now(), label))
	}
	k := 0
	deadline := func(now Time) Time {
		switch k {
		case 3:
			return now.Add(-5 * Nanosecond)
		case 5:
			return now
		}
		return now.Add(10 * Nanosecond)
	}
	first := func(now Time) Time {
		rec("first")
		e.Schedule(now, func() { rec("after first") })
		return deadline(now)
	}
	tick := func(now Time) Time {
		k++
		rec(fmt.Sprintf("tick %d", k))
		if k == stop.tick {
			e.Stop()
		}
		e.Schedule(now, func() { rec(fmt.Sprintf("echo %d", k)) })
		next := deadline(now)
		e.Schedule(max(next, now), func() { rec(fmt.Sprintf("ahead of tick %d", k+1)) })
		return next
	}
	for at := Time(0); at <= Time(200*Nanosecond); at = at.Add(5 * Nanosecond) {
		e.Schedule(at, func() { rec("bg") })
	}
	if stop.arm != nil {
		stop.arm(e, rec)
	}
	e.Schedule(Time(5*Nanosecond), func() {
		if paced {
			e.Pace(first, tick)
			return
		}
		e.Spawn("ref", func(p *Proc) {
			next := first(p.Now())
			for p.Running() {
				p.SleepUntil(next)
				if !p.Running() {
					break
				}
				next = tick(p.Now())
			}
		})
	})
	for at := Time(0); at <= Time(200*Nanosecond); at = at.Add(5 * Nanosecond) {
		e.Schedule(at, func() { rec("bg late") })
	}
	e.RunAll()
	return trace, e.EventsProcessed()
}

// TestPaceMatchesProcLoop checks Pace against the process loop it
// replaces: the same deadlines, including a past and a same-instant
// one, interleaved with other events at the same instants, give the
// identical (time, order) trace and event count under every way the
// run can end mid-grid. Ticks land at 15, 25, 35, 35, 45, 45, 55, ...
func TestPaceMatchesProcLoop(t *testing.T) {
	stopAt := func(at Time) func(e *Engine, rec func(string)) {
		return func(e *Engine, rec func(string)) { e.SetStopTime(at) }
	}
	stopEvent := func(armAt, at Time) func(e *Engine, rec func(string)) {
		return func(e *Engine, rec func(string)) {
			e.Schedule(armAt, func() {
				e.Schedule(at, func() { rec("stop"); e.Stop() })
			})
		}
	}
	ns := func(n int) Time { return Time(Duration(n) * Nanosecond) }
	stops := map[string]paceStop{
		"stop time between deadlines":         {arm: stopAt(ns(62))},
		"stop time on a deadline":             {arm: stopAt(ns(65))},
		"stop time at launch":                 {arm: stopAt(ns(5))},
		"Stop before the tick at its instant": {arm: stopEvent(0, ns(55))},
		"Stop after the tick at its instant":  {arm: stopEvent(ns(50), ns(55))},
		"Stop inside a tick":                  {tick: 6},
	}
	for name, stop := range stops {
		t.Run(name, func(t *testing.T) {
			want, wantEvents := pacedTrace(false, stop)
			got, gotEvents := pacedTrace(true, stop)
			if !slices.Equal(got, want) {
				t.Fatalf("Pace trace differs from the process loop:\n got  %q\n want %q", got, want)
			}
			if gotEvents != wantEvents {
				t.Fatalf("Pace fired %d events, the process loop %d", gotEvents, wantEvents)
			}
		})
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Spawn("loop", func(p *Proc) {
		for p.Running() {
			n++
			if n == 5 {
				e.Stop()
			}
			p.Sleep(Nanosecond)
		}
	})
	e.RunAll()
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
}

// TestDeterminism checks the core reproducibility invariant: identical
// seeds produce identical event traces, including RNG draws interleaved
// across processes.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var trace []int64
		for k := 0; k < 4; k++ {
			e.Spawn("w", func(p *Proc) {
				for i := 0; i < 50; i++ {
					d := Duration(e.Rand().Intn(1000)) * Picosecond
					p.Sleep(d)
					trace = append(trace, int64(p.Now()))
				}
			})
		}
		e.RunAll()
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(times []uint32) bool {
		e := NewEngine(1)
		var fired []Time
		for _, tt := range times {
			at := Time(tt)
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		e.RunAll()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleStep(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ScheduleAfter(Nanosecond, func() {})
		e.Step()
	}
}

// BenchmarkEngineProcSwitch prices one process wake: a Sleep schedules
// the prebound dispatch, parks, and the engine switches back into the
// process when the event fires.
func BenchmarkEngineProcSwitch(b *testing.B) {
	e := NewEngine(1)
	e.SetStopTime(Never - 1)
	e.Spawn("spin", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
}

// BenchmarkEnginePacedTick prices one paced-sender deadline: the tick
// returns its next deadline and Pace schedules the prebound tick event
// — BenchmarkEngineProcSwitch's work without the coroutine switch.
func BenchmarkEnginePacedTick(b *testing.B) {
	e := NewEngine(1)
	e.SetStopTime(Never - 1)
	n := 0
	e.Pace(func(now Time) Time { return now.Add(Nanosecond) }, func(now Time) Time {
		if n++; n == b.N {
			e.Stop()
		}
		return now.Add(Nanosecond)
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
}
