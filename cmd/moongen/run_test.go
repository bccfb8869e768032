package main

import (
	"bytes"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/spec"
)

// TestFlagsPassSpecChecks drives the CLI in-process with flag values
// the spec schema rejects. Each must fail before anything runs, with
// one error that names the flag.
func TestFlagsPassSpecChecks(t *testing.T) {
	cases := []struct {
		args []string
		flag string // the error starts with "<flag>: "
		want string // and carries this fragment exactly once
	}{
		{[]string{"flood", "-size", "5000"}, "-size", "out of range [60, 1514]"},
		{[]string{"flood", "-size", "10"}, "-size", "out of range [60, 1514]"},
		{[]string{"flood", "-batch", "100000"}, "-batch", "out of range [1, 512]"},
		{[]string{"cbr", "-rate", "30"}, "-rate", "exceeds the 10GbE line rate"},
		{[]string{"flood", "-runtime", "-5"}, "-runtime", "must be positive"},
		{[]string{"run", "../../examples/specs/loss-overload.yaml", "-cores", "3"}, "-cores", "does not divide the flow count (4)"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("ran without error; stdout:\n%s", stdout.String())
			}
			msg := err.Error()
			if !strings.HasPrefix(msg, tc.flag+": ") {
				t.Errorf("error does not name %s: %q", tc.flag, msg)
			}
			if n := strings.Count(msg, tc.want); n != 1 {
				t.Errorf("fragment %q appears %d times in %q, want once", tc.want, n, msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("the run started despite the error; stdout:\n%s", stdout.String())
			}
		})
	}
}

// TestRunSpecMatchesNamedScenario pins the two entry points to one
// path: a spec file plus a flag prints what the named scenario prints
// with the flags the file stands for.
func TestRunSpecMatchesNamedScenario(t *testing.T) {
	out := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("moongen %s: %v", strings.Join(args, " "), err)
		}
		return stdout.String()
	}
	spec := out("run", "../../examples/specs/softcbr-2mpps.yaml", "-runtime", "2")
	named := out("softcbr", "-rate", "2", "-runtime", "2")
	if spec == "" || spec != named {
		t.Fatalf("stdout differs\n--- run softcbr-2mpps.yaml -runtime 2:\n%s--- softcbr -rate 2 -runtime 2:\n%s", spec, named)
	}
}

// TestFlowsFlagResizesBeforeChecks pins -flows into the merge: the
// sharding check sees the resized flow set, so 6 flows on 3 cores run
// although the default 4 flows would not divide.
func TestFlowsFlagResizesBeforeChecks(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"loss-overload", "-flows", "6", "-cores", "3", "-runtime", "1"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "flow f5 ") {
		t.Fatalf("no sixth flow in the report:\n%s", stdout.String())
	}
}

// TestShownDefaultsAreTheResolvedValues pins `moongen <scenario> -h` to
// the run: for every registered scenario, each knob flag that shows a
// default, passed that default explicitly, compiles to the same
// resolved Spec as leaving the flag out.
func TestShownDefaultsAreTheResolvedValues(t *testing.T) {
	compile := func(name string, args ...string) (scenario.Spec, error) {
		doc := &spec.Document{File: name, Scenario: name}
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		doc.RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			return scenario.Spec{}, err
		}
		if err := doc.ApplyFlags(fs); err != nil {
			return scenario.Spec{}, err
		}
		_, s, err := doc.Compile()
		return s.WithDefaults(), err
	}
	for _, name := range scenario.Names() {
		want, err := compile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		for _, f := range (&spec.Document{File: name, Scenario: name}).RegisterFlags(fs) {
			def := fs.Lookup(f).DefValue
			if def == "" {
				continue
			}
			got, err := compile(name, "-"+f+"="+def)
			if err != nil {
				t.Errorf("%s -%s=%s (the shown default): %v", name, f, def, err)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s -%s=%s (the shown default) resolves to\n%+v\nwithout the flag:\n%+v", name, f, def, got, want)
			}
		}
	}
}
