package sim

import (
	"fmt"
	"iter"
)

// Proc is a cooperatively scheduled simulation process.
//
// A process is a coroutine (iter.Pull) that runs in lockstep with the
// engine: the engine wakes it, the process executes until it blocks in
// Sleep or Yield (or returns), and only then does the engine resume the
// event loop. Control passes by direct coroutine switch, without the Go
// scheduler. At most one process (or event callback) executes at a
// time, so the simulation stays deterministic even though processes are
// written as ordinary sequential Go code with loops — the direct
// analogue of a MoonGen slave task's transmit or receive loop. A panic
// inside a process propagates out of the engine's Run call.
//
// Use a Proc for a task that blocks in the middle of its body: busy-
// wait backoff (SendAll, AllocAll, RecvPoll), multi-step sequences and
// receive loops. A sender whose only wait is one deadline per loop
// iteration should use Engine.Pace instead, which costs one event per
// deadline and no coroutine switch.
type Proc struct {
	eng  *Engine
	name string
	dead bool

	// next resumes the coroutine until it parks or returns; yield,
	// called from inside it, is the park.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// dispatchFn is the prebound wake-up callback: Sleep/SleepUntil on
	// the hot path schedule it without allocating a closure per park.
	dispatchFn func()
}

// Spawn starts fn as a new simulation process at the current simulated
// time. fn runs as a coroutine serialized with all other simulation
// activity.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.dispatchFn = func() { e.dispatch(p) }
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.dead = true
			e.procs--
		}()
		fn(p)
	})
	e.procs++
	// First wake-up happens as a normal event at the current time, so
	// Spawn itself never runs user code.
	e.ScheduleProc(e.now, p)
	return p
}

// Pace starts a paced sender: a task whose body never blocks except to
// wait for its next deadline. It is the event-for-event equivalent of
// the process
//
//	e.Spawn(name, func(p *Proc) {
//		next := first(p.Now())
//		for p.Running() {
//			p.SleepUntil(next)
//			if !p.Running() {
//				break
//			}
//			next = tick(p.Now())
//		}
//	})
//
// run as two prebound event callbacks instead of a coroutine: first
// runs in an event at the current simulated time, where Spawn's first
// wake-up would fire, and tick runs at each deadline that it or first
// returned. Each deadline is scheduled at the same point in program
// order as the process's SleepUntil, so event order, sequence numbers
// and EventsProcessed are identical; a deadline in the past becomes a
// wake-up at the current instant. The sender stops once Running
// reports false, exactly where the process loop would.
//
// Use Pace for software-paced transmit loops (one packet or decision
// per deadline); use Spawn when the body must block mid-iteration.
func (e *Engine) Pace(first func(now Time) Time, tick func(now Time) Time) {
	var tickFn func()
	tickFn = func() {
		if !e.Running() {
			return
		}
		next := tick(e.now)
		if e.Running() {
			e.Schedule(max(next, e.now), tickFn)
		}
	}
	e.Schedule(e.now, func() {
		next := first(e.now)
		if e.Running() {
			e.Schedule(max(next, e.now), tickFn)
		}
	})
}

// ScheduleProc arms a wake-up for p at time at through the process's
// prebound dispatch function — the zero-allocation event path of the
// hot loops. Sleep/SleepUntil/Yield all go through it; model code that
// wants to wake a process at an explicit instant should too, instead
// of capturing the process in a fresh closure.
func (e *Engine) ScheduleProc(at Time, p *Proc) { e.Schedule(at, p.dispatchFn) }

// dispatch switches from the engine to the process and returns once it
// parks or exits. Must be called from engine (event) context.
func (e *Engine) dispatch(p *Proc) {
	if !p.dead {
		p.next()
	}
}

// park switches back to the engine; it returns when the engine
// dispatches this process again.
func (p *Proc) park() { p.yield(struct{}{}) }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Running reports whether the simulation run time is still in progress;
// the usual main-loop condition (see Engine.Running).
func (p *Proc) Running() bool { return p.eng.Running() }

// Sleep suspends the process for d of simulated time. Other events and
// processes run in the meantime. Sleep(0) is a pure yield: it reinserts
// the process at the back of the current instant's event queue.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s: negative sleep %v", p.name, d))
	}
	e := p.eng
	e.ScheduleProc(e.now.Add(d), p)
	p.park()
}

// SleepUntil suspends the process until the absolute simulated time t.
// If t is in the past it degenerates to a yield.
func (p *Proc) SleepUntil(t Time) {
	if t < p.eng.now {
		t = p.eng.now
	}
	e := p.eng
	e.ScheduleProc(t, p)
	p.park()
}

// Yield lets every other event scheduled for the current instant run
// before the process continues.
func (p *Proc) Yield() { p.Sleep(0) }
