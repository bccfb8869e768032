// Command moongen runs traffic scenarios on the simulated testbed —
// the CLI face of the library, mirroring `MoonGen <script.lua> <args>`.
// Scenarios register themselves (internal/scenario for the load
// scenarios, internal/experiments for the measurement-backed ones);
// this driver only maps flags onto the declarative Spec and prints the
// report.
//
// Usage:
//
//	moongen list
//	moongen <scenario> [flags]
//	moongen run <spec.yaml|spec.json> [flags]
//
// The named form starts from the scenario's default spec; the run form
// starts from a declarative spec file (see docs/spec-reference.md). In
// both forms the knob flags come from internal/spec's knob table and
// override the starting spec before it is validated, so a flag passes
// the same bounds and checks as the spec key it stands for.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/spec"

	// Registers the experiment-backed scenarios (interarrival-*,
	// timestamps).
	_ "repro/internal/experiments"
)

// runError is a failure of the run itself, not of its command line or
// spec; it exits 1 instead of 2.
type runError struct{ error }

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, err)
	if errors.As(err, new(runError)) {
		os.Exit(1)
	}
	os.Exit(2)
}

// run is the whole CLI: it dispatches on the first argument and writes
// reports to stdout and usage to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		usage(stderr)
		return errors.New("missing scenario name")
	}
	switch name := args[0]; name {
	case "list", "-list", "--list":
		runList(stdout)
		return nil
	case "run":
		if len(args) < 2 || strings.HasPrefix(args[1], "-") {
			return errors.New("usage: moongen run <spec.yaml|spec.json> [flags]")
		}
		doc, err := spec.Load(args[1])
		if err != nil {
			return err
		}
		return runScenario(doc, args[2:], stdout, stderr)
	default:
		if _, ok := scenario.Get(name); !ok {
			usage(stderr)
			return fmt.Errorf("unknown scenario %q", name)
		}
		return runScenario(&spec.Document{File: name, Scenario: name}, args[1:], stdout, stderr)
	}
}

// cliFlags are the flags that configure only this invocation: where
// telemetry is written, a fault-plan file to load and a generic flow
// count. They have no spec key.
type cliFlags struct {
	flows     int
	telemetry string
	faults    string
}

// newFlagSet registers the knob flags of doc and the CLI-only flags. It
// returns the flag names in the order the usage line lists them: the
// knob table's order, with each CLI-only flag before the knob it goes
// with.
func newFlagSet(doc *spec.Document) (*flag.FlagSet, *cliFlags, []string) {
	fs := flag.NewFlagSet(doc.Scenario, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := &cliFlags{}
	fs.IntVar(&c.flows, "flows", 0, "declared flow count `N` (0 keeps the scenario's default flow set)")
	fs.StringVar(&c.telemetry, "telemetry", "", "record windowed telemetry to `PATH` (.jsonl switches to JSONL, else CSV)")
	fs.StringVar(&c.faults, "faults", "", "load a fault plan from `PATH` (a faults: block, YAML or JSON) onto the scenario")
	before := map[string]string{"churn-flows": "flows", "telemetry-interval": "telemetry"}
	var order []string
	for _, name := range doc.RegisterFlags(fs) {
		if cli, ok := before[name]; ok {
			order = append(order, cli)
		}
		order = append(order, name)
	}
	return fs, c, append(order, "faults")
}

// runScenario applies the flags to doc, compiles it, wires the optional
// telemetry file, executes and prints the report. It is the shared tail
// of both `moongen <scenario>` and `moongen run`.
func runScenario(doc *spec.Document, args []string, stdout, stderr io.Writer) error {
	fs, c, _ := newFlagSet(doc)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(stderr, "usage: moongen %s [flags]\n", doc.Scenario)
			fs.SetOutput(stderr)
			fs.PrintDefaults()
		}
		return err
	}
	if err := doc.ApplyFlags(fs); err != nil {
		return err
	}
	name, sp, err := doc.CompileWith(func(sp *scenario.Spec) error {
		if c.flows <= 0 || c.flows == len(sp.Flows) {
			return nil
		}
		// Resizing is only meaningful for scenarios whose flow set is
		// the generic FlowSet; curated flow sets (qos's shaped EF/BE
		// pair, spec-file flows with marks and rates) carry per-flow
		// state a generic replacement would silently zero out, and
		// scenarios declaring no flows never consume a flow count.
		if !isGenericFlowSet(sp.Flows) {
			return fmt.Errorf("scenario %s does not take a flow count; -flows only applies to flow-tracked scenarios", doc.Scenario)
		}
		sp.Flows = scenario.FlowSet(c.flows)
		return nil
	})
	if err != nil {
		return err
	}

	if c.faults != "" {
		// A -faults file replaces the scenario's plan (if any) wholesale;
		// Execute re-validates the merged spec, so a plan whose targets
		// the topology lacks still fails closed before anything runs.
		plan, err := spec.LoadFaults(c.faults)
		if err != nil {
			return err
		}
		sp.Faults = plan
	}

	var telFile *os.File
	if c.telemetry != "" {
		if sp.TelemetryInterval <= 0 {
			sp.TelemetryInterval = sim.Millisecond
		}
		sp.TelemetryJSONL = strings.HasSuffix(c.telemetry, ".jsonl")
		f, err := os.Create(c.telemetry)
		if err != nil {
			return runError{err}
		}
		telFile = f
		if sp.Cores <= 1 {
			// Single engine: rows stream to the file as they are
			// recorded. Sharded runs write the merged series below —
			// per-shard streams would carry partial counters.
			sp.TelemetryStream = f
		}
	}

	rep, err := scenario.Execute(name, sp, stdout)
	if err != nil {
		if telFile != nil {
			telFile.Close()
		}
		return runError{err}
	}
	if telFile != nil {
		if sp.TelemetryStream == nil {
			if rep.Telemetry == nil {
				fmt.Fprintf(stderr, "telemetry: scenario %s produced no series (it bypasses the standard testbed)\n", name)
			} else if sp.TelemetryJSONL {
				err = rep.Telemetry.WriteJSONL(telFile, sp.TelemetryDiag)
			} else {
				err = rep.Telemetry.WriteCSV(telFile, sp.TelemetryDiag)
			}
		}
		if cerr := telFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return runError{fmt.Errorf("telemetry: %w", err)}
		}
	}
	rep.Print(stdout)
	return nil
}

// isGenericFlowSet reports whether flows is exactly the generic
// scenario.FlowSet shape — the only kind -flows may resize. Scenarios
// declaring no flows (they run the implicit DefaultFlow) or a curated
// set are rejected: resizing would silently change their traffic.
func isGenericFlowSet(flows []scenario.Flow) bool {
	if len(flows) == 0 {
		return false
	}
	want := scenario.FlowSet(len(flows))
	for i := range flows {
		if flows[i] != want[i] {
			return false
		}
	}
	return true
}

// runList prints the sorted scenario listing with one-line
// descriptions — the body of `moongen list`.
func runList(w io.Writer) {
	fmt.Fprintln(w, "scenarios:")
	scenario.WriteList(w)
}

// synopsis renders the one-line flag summary from the registered flags;
// each placeholder is the `quoted` word of the flag's usage text.
func synopsis() string {
	fs, _, order := newFlagSet(&spec.Document{})
	var b strings.Builder
	b.WriteString("usage: moongen <scenario>")
	for _, name := range order {
		meta, _ := flag.UnquoteUsage(fs.Lookup(name))
		b.WriteString(" [-" + name)
		if meta != "" {
			b.WriteString(" " + meta)
		}
		b.WriteString("]")
	}
	return b.String()
}

func usage(w io.Writer) {
	fmt.Fprintln(w, synopsis())
	fmt.Fprintln(w, "       moongen run <spec.yaml|spec.json> [flags]")
	fmt.Fprintln(w, "       moongen list")
	fmt.Fprintln(w)
	runList(w)
}
