package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Layer spans are recorded only here, around the benchmark's own calls
// into each module's public functions; the program itself carries no
// tracing code.

// spanName identifies the layer call a span covers.
type spanName uint8

const (
	spanSimRun spanName = iota // root: first simulated event to the end of Scenario.Run
	spanMempoolAlloc
	spanMempoolFree
	spanMempoolPrefill
	spanProtoFill
	spanNicTxSubmit
	spanNicRxRecv
	spanRateNextGap
	spanCoreProbe
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanSimRun:         "sim.run",
	spanMempoolAlloc:   "mempool.alloc",
	spanMempoolFree:    "mempool.free",
	spanMempoolPrefill: "mempool.prefill",
	spanProtoFill:      "proto.fill",
	spanNicTxSubmit:    "nic.tx_submit",
	spanNicRxRecv:      "nic.rx_recv",
	spanRateNextGap:    "rate.next_gap",
	spanCoreProbe:      "core.probe",
}

func (n spanName) String() string { return spanNames[n] }

// noParent marks a root span.
const noParent = -1

// span is one recorded interval of wall time, in nanoseconds since the
// tracer's epoch. Parent is the index of the span that was open when
// this one began, or noParent.
type span struct {
	Start, End int64
	Parent     int32
	Name       spanName
	// Async marks a call that blocks in simulated time (other
	// simulated tasks run inside its interval). It never becomes a
	// parent and is left out of self-time accounting: its duration is
	// a waiting time, not work of its own layer.
	Async bool
}

// tracer holds the spans of one traced execution in memory. Simulated
// tasks run one at a time (each hands control back to the engine
// before another runs), so a single open-span stack describes nesting
// exactly as long as no span other than an async one encloses a
// blocking call.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32

	callCounts
}

// callCounts are work and waste counts taken at the span boundaries:
// calls made, and calls that came back short or empty.
type callCounts struct {
	allocCalls, allocShort uint64
	sendCalls, sendShort   uint64
	recvCalls, recvEmpty   uint64
}

func (c *callCounts) add(o callCounts) {
	c.allocCalls += o.allocCalls
	c.allocShort += o.allocShort
	c.sendCalls += o.sendCalls
	c.sendShort += o.sendShort
	c.recvCalls += o.recvCalls
	c.recvEmpty += o.recvEmpty
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name spanName) int32 {
	parent := int32(noParent)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Start: t.now(), Parent: parent, Name: name})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) {
	n := len(t.stack)
	if n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %s closed out of order", t.spans[id].Name))
	}
	t.spans[id].End = t.now()
	t.stack = t.stack[:n-1]
}

// beginAsync opens a span that stays off the nesting stack.
func (t *tracer) beginAsync(name spanName) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Start: t.now(), Parent: noParent, Name: name, Async: true})
	return id
}

func (t *tracer) endAsync(id int32) { t.spans[id].End = t.now() }

// selfTimes returns each span name's self time in nanoseconds: its
// spans' durations minus the parts of them covered by child spans.
// Async spans contribute nothing.
func selfTimes(spans []span) [numSpanNames]int64 {
	var self [numSpanNames]int64
	for _, s := range spans {
		if s.Async {
			continue
		}
		d := s.End - s.Start
		self[s.Name] += d
		if s.Parent != noParent {
			self[spans[s.Parent].Name] -= d
		}
	}
	return self
}

// totalTimes returns each span name's summed durations and call counts.
func totalTimes(spans []span) (total [numSpanNames]int64, calls [numSpanNames]uint64) {
	for _, s := range spans {
		total[s.Name] += s.End - s.Start
		calls[s.Name]++
	}
	return total, calls
}

// writeSpans writes the spans as CSV (index, name, start, end, parent,
// async), one line per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,name,start_ns,end_ns,parent,async")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%t\n", i, s.Name, s.Start, s.End, s.Parent, s.Async)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
