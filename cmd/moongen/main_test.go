package main

import (
	"flag"
	"sort"
	"strings"
	"testing"

	"repro/internal/spec"
)

// TestUsageCoversEveryFlag pins the usage line to the FlagSet: the
// flags it registers (the knob table's plus the CLI-only ones) and the
// flags the synopsis advertises are the same set, one-to-one.
func TestUsageCoversEveryFlag(t *testing.T) {
	fs, _, order := newFlagSet(&spec.Document{})
	registered := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { registered[f.Name] = true })

	advertised := map[string]bool{}
	for _, name := range order {
		if advertised[name] {
			t.Errorf("flag -%s advertised twice in the synopsis", name)
		}
		advertised[name] = true
		if !strings.Contains(synopsis(), "[-"+name+"]") && !strings.Contains(synopsis(), "[-"+name+" ") {
			t.Errorf("flag -%s missing from the synopsis %q", name, synopsis())
		}
	}
	for name := range registered {
		if !advertised[name] {
			t.Errorf("flag -%s registered but missing from the usage synopsis", name)
		}
	}
	for name := range advertised {
		if !registered[name] {
			t.Errorf("flag -%s advertised in usage but never registered", name)
		}
	}
	if !strings.HasPrefix(synopsis(), "usage: moongen <scenario> [") {
		t.Errorf("synopsis lost its prefix: %q", synopsis())
	}
}

// TestListDeterministicSortedDescribed pins the `moongen list` output:
// byte-identical across calls, scenarios in sorted order, and a
// non-empty one-line description on every row.
func TestListDeterministicSortedDescribed(t *testing.T) {
	var first, second strings.Builder
	runList(&first)
	runList(&second)
	if first.String() != second.String() {
		t.Fatalf("list output not deterministic:\n%q\nvs\n%q", first.String(), second.String())
	}
	lines := strings.Split(strings.TrimRight(first.String(), "\n"), "\n")
	if lines[0] != "scenarios:" {
		t.Fatalf("missing header: %q", lines[0])
	}
	rows := lines[1:]
	if len(rows) < 8 {
		t.Fatalf("only %d scenarios listed", len(rows))
	}
	var names []string
	for i, row := range rows {
		fields := strings.Fields(row)
		if len(fields) < 2 {
			t.Fatalf("row %d has no description: %q", i, row)
		}
		names = append(names, fields[0])
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("scenarios not sorted: %v", names)
	}
	// The pinned scenario set: every workload the CLI must expose. New
	// scenarios are added here deliberately, never by accident.
	want := []string{
		"bursts", "cbr", "churn", "flood", "imix",
		"interarrival-moongen", "interarrival-pktgen", "interarrival-zsend",
		"latency", "linkflap", "loss-overload", "overload-recover",
		"poisson", "qos", "reflect", "reorder",
		"softcbr", "timestamps",
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("pinned scenario %q missing from list output (have %v)", n, names)
		}
	}
}
