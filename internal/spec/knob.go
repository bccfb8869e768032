package spec

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/proto"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// kind is a knob's value type. It fixes how a spec file spells the value
// (units required) and how a CLI flag spells it (a bare number).
type kind int

const (
	intKind      kind = iota // an integer within [lo, hi], in both syntaxes
	durationKind             // spec "50ms"; flag bare milliseconds; positive
	rateKind                 // spec "2mpps" or "line"; flag bare Mpps, 0 = line rate
	boolKind                 // spec true/false; flag -name or -name=false
	patternKind              // one of the scenario.Pattern names, in both syntaxes
)

// knob is one scalar scenario setting that a spec key and a CLI flag
// both set. Each is declared once, in knobs; the spec walk, the allowed
// keys, the flag set and the flags-override-file merge all derive from
// the table.
type knob struct {
	key    string // spec key path, e.g. "load.rate"
	flag   string // CLI flag name, e.g. "rate"
	kind   kind
	lo, hi int64 // bounds of an intKind value
	// help is the flag's usage text; its `quoted` word is the
	// placeholder the usage line shows.
	help string
	// field points into the spec the knob sets; the value parse
	// returns converts to the field's type.
	field func(*scenario.Spec) any
}

// Frame sizes without FCS that the modeled 10GbE MAC accepts.
const minFrame, maxFrame = 60, 1514

// knobs is in the order the CLI usage line lists the flags.
var knobs = []*knob{
	{key: "load.rate", flag: "rate", kind: rateKind,
		help:  "target rate in `M`pps (0 = line rate where applicable)",
		field: func(s *scenario.Spec) any { return &s.RateMpps }},
	{key: "load.size", flag: "size", kind: intKind, lo: minFrame, hi: maxFrame,
		help:  "frame size `B` in bytes, without FCS",
		field: func(s *scenario.Spec) any { return &s.PktSize }},
	{key: "runtime", flag: "runtime", kind: durationKind,
		help:  "simulated run time, `MS` milliseconds",
		field: func(s *scenario.Spec) any { return &s.Runtime }},
	{key: "seed", flag: "seed", kind: intKind, lo: math.MinInt64, hi: math.MaxInt64,
		help:  "simulation seed `N`",
		field: func(s *scenario.Spec) any { return &s.Seed }},
	{key: "load.pattern", flag: "pattern", kind: patternKind,
		help:  "load pattern `P`: linerate, cbr, softcbr, poisson or bursts",
		field: func(s *scenario.Spec) any { return &s.Pattern }},
	{key: "load.burst", flag: "burst", kind: intKind, lo: 1, hi: 4096,
		help:  "burst size `N` for the bursts pattern",
		field: func(s *scenario.Spec) any { return &s.Burst }},
	{key: "batch", flag: "batch", kind: intKind, lo: 1, hi: 512,
		help:  "TX burst size `N` through the batched datapath (1 = per-packet)",
		field: func(s *scenario.Spec) any { return &s.Batch }},
	{key: "probes.latency", flag: "probes", kind: intKind, lo: 0, hi: math.MaxInt32,
		help:  "`N` timestamped latency probes (0 = none)",
		field: func(s *scenario.Spec) any { return &s.Probes }},
	{key: "probes.samples", flag: "samples", kind: intKind, lo: 0, hi: math.MaxInt32,
		help:  "`N` samples for distribution measurements",
		field: func(s *scenario.Spec) any { return &s.Samples }},
	{key: "load.steps", flag: "steps", kind: intKind, lo: 1, hi: 1024,
		help:  "`N` sweep steps for sweeping scenarios",
		field: func(s *scenario.Spec) any { return &s.Steps }},
	{key: "topology.dut", flag: "dut", kind: boolKind,
		help:  "route traffic through the simulated DuT forwarder",
		field: func(s *scenario.Spec) any { return &s.UseDuT }},
	{key: "cores", flag: "cores", kind: intKind, lo: 1, hi: 1024,
		help:  "`N` modeled cores (> 1 runs sharded engines and merges the reports)",
		field: func(s *scenario.Spec) any { return &s.Cores }},
	{key: "churn.flows", flag: "churn-flows", kind: intKind, lo: 1, hi: 1 << 28,
		help:  "churn scenario: live-flow working set size `W`",
		field: func(s *scenario.Spec) any { return &s.ChurnFlows }},
	{key: "churn.life", flag: "churn-life", kind: intKind, lo: 1, hi: math.MaxInt32,
		help:  "churn scenario: flow lifetime `R` in packets",
		field: func(s *scenario.Spec) any { return &s.ChurnLife }},
	{key: "telemetry.interval", flag: "telemetry-interval", kind: durationKind,
		help:  "telemetry window length, `MS` milliseconds of simulated time (-telemetry defaults it to 1)",
		field: func(s *scenario.Spec) any { return &s.TelemetryInterval }},
	{key: "telemetry.diag", flag: "telemetry-diag", kind: boolKind,
		help:  "include diagnostic columns (engine/pool internals; vary with -cores/-batch)",
		field: func(s *scenario.Spec) any { return &s.TelemetryDiag }},
}

// override is one knob value a document sets: from the spec file at
// line, or from a CLI flag when line is 0.
type override struct {
	k    *knob
	val  any
	line int
}

// parse reads a knob value in spec syntax or, for a CLI flag, in flag
// syntax. The value has the type set stores.
func (k *knob) parse(raw string, isFlag bool) (any, error) {
	switch k.kind {
	case durationKind:
		if !isFlag {
			return positiveDuration(raw)
		}
		ms, err := parseNumber(raw)
		if err != nil {
			return nil, err
		}
		if d := sim.FromSeconds(ms / 1e3); d > 0 {
			return d, nil
		}
		return nil, fmt.Errorf("duration must be positive, got %s ms", raw)
	case rateKind:
		if !isFlag {
			return parseRate(raw)
		}
		v, err := parseNumber(raw)
		if err == nil && v < 0 {
			err = fmt.Errorf("rate must be ≥ 0 Mpps (0 = line rate), got %s", raw)
		}
		return v, err
	case boolKind:
		if !isFlag {
			return parseBool(raw)
		}
		v, err := strconv.ParseBool(raw)
		if err != nil {
			return nil, fmt.Errorf("%q is not a boolean", raw)
		}
		return v, nil
	case patternKind:
		return parsePattern(raw)
	}
	return intIn(k.lo, k.hi)(raw)
}

// set stores a value parse returned into the spec field.
func (k *knob) set(s *scenario.Spec, v any) {
	dst := reflect.ValueOf(k.field(s)).Elem()
	dst.Set(reflect.ValueOf(v).Convert(dst.Type()))
}

// flagText renders the knob's field of s in flag syntax; a zero field
// renders empty, so its flag shows no default.
func (k *knob) flagText(s scenario.Spec) string {
	v := reflect.ValueOf(k.field(&s)).Elem()
	if v.IsZero() {
		return ""
	}
	if d, ok := k.field(&s).(*sim.Duration); ok {
		return strconv.FormatFloat(d.Seconds()*1e3, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}

// flagValue holds a knob flag's text until ApplyFlags parses it.
type flagValue struct {
	k    *knob
	text string
}

func (v *flagValue) String() string {
	if v == nil {
		return ""
	}
	return v.text
}

func (v *flagValue) Set(s string) error { v.text = s; return nil }

func (v *flagValue) IsBoolFlag() bool { return v.k.kind == boolKind }

// RegisterFlags registers one flag per knob on fs, each showing the
// value the document runs with when the flag is not set (after the
// zero-means-default resolution of scenario.Spec.WithDefaults), and
// returns the flag names in usage order.
func (d *Document) RegisterFlags(fs *flag.FlagSet) []string {
	_, s, _ := d.merge()
	s = s.WithDefaults()
	names := make([]string, len(knobs))
	for i, k := range knobs {
		fs.Var(&flagValue{k: k, text: k.flagText(s)}, k.flag, k.help)
		names[i] = k.flag
	}
	return names
}

// ApplyFlags records each knob flag set on fs as an override after the
// file's, so Compile runs flags through the same checks as spec keys.
// A bad value is an error naming the flag.
func (d *Document) ApplyFlags(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		fv, ok := f.Value.(*flagValue)
		if !ok || err != nil {
			return
		}
		v, perr := fv.k.parse(fv.text, true)
		if perr != nil {
			err = fmt.Errorf("-%s: %v", f.Name, perr)
			return
		}
		d.overrides = append(d.overrides, override{k: fv.k, val: v})
	})
	return err
}

// ---------------------------------------------------------------------
// Scalar parsers. Errors leave out the field name; field adds it.
// ---------------------------------------------------------------------

// field reads n as a scalar and parses it, anchoring an error to line
// as "key: ...".
func field[T any](d *Document, n *node, line int, key string, parse func(string) (T, error)) (T, error) {
	var zero T
	if n.kind != scalarNode {
		return zero, d.errAt(line, "%s: expected a scalar value, got a %s", key, n.kindName())
	}
	v, err := parse(n.val)
	if err != nil {
		return zero, d.errAt(line, "%s: %v", key, err)
	}
	return v, nil
}

// opt parses m's key with parse when it is present and hands the value
// to set. prefix is the key's path in error messages.
func opt[T any](d *Document, m *node, prefix, key string, parse func(string) (T, error), set func(T)) error {
	n, line, ok := m.get(key)
	if !ok {
		return nil
	}
	v, err := field(d, n, line, prefix+key, parse)
	if err == nil {
		set(v)
	}
	return err
}

func parseStr(raw string) (string, error) {
	if raw == "" {
		return "", errors.New("value is empty")
	}
	return raw, nil
}

// intIn parses an integer within [lo, hi]. Base 0 accepts 0x-prefixed
// hex, which reads naturally for TOS and DSCP bytes ("tos: 0xb8").
func intIn(lo, hi int64) func(string) (int64, error) {
	return func(raw string) (int64, error) {
		v, err := strconv.ParseInt(raw, 0, 64)
		if err != nil {
			return 0, fmt.Errorf("%q is not an integer", raw)
		}
		if v < lo || v > hi {
			return 0, fmt.Errorf("%d is out of range [%d, %d]", v, lo, hi)
		}
		return v, nil
	}
}

func parseBool(raw string) (bool, error) {
	switch raw {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, fmt.Errorf("%q is not a boolean (true or false)", raw)
}

func parseNumber(raw string) (float64, error) {
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%q is not a number", raw)
	}
	return v, nil
}

func parsePattern(raw string) (scenario.Pattern, error) {
	switch p := scenario.Pattern(raw); p {
	case scenario.PatternLineRate, scenario.PatternCBR, scenario.PatternSoftCBR, scenario.PatternPoisson, scenario.PatternBursts:
		return p, nil
	}
	return "", fmt.Errorf("unknown pattern %q (one of: linerate, cbr, softcbr, poisson, bursts)", raw)
}

func parseIP(raw string) (proto.IPv4, error) {
	if _, err := parseStr(raw); err != nil {
		return 0, err
	}
	return proto.ParseIPv4(raw)
}

// parseDuration reads a duration with an explicit unit: "50ms", "2s",
// "100us", "500ns". A bare number is rejected — durations without units
// have caused enough outages elsewhere. The value may be negative (a
// clock step backwards).
func parseDuration(raw string) (sim.Duration, error) {
	num, unit := splitUnit(raw)
	var scale sim.Duration
	switch unit {
	case "ns":
		scale = sim.Nanosecond
	case "us", "µs":
		scale = sim.Microsecond
	case "ms":
		scale = sim.Millisecond
	case "s":
		scale = sim.Second
	case "":
		return 0, fmt.Errorf("%q is missing a unit — write e.g. \"50ms\" (units: ns, us, ms, s)", raw)
	default:
		return 0, fmt.Errorf("unknown unit %q in %q (units: ns, us, ms, s)", unit, raw)
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || num == "" {
		return 0, fmt.Errorf("%q is not a duration — write e.g. \"50ms\"", raw)
	}
	return sim.Duration(math.Round(v * float64(scale))), nil
}

func positiveDuration(raw string) (sim.Duration, error) {
	d, err := parseDuration(raw)
	if err == nil && d <= 0 {
		err = fmt.Errorf("duration must be positive, got %v", d)
	}
	return d, err
}

// nonNegativeDuration admits zero ("at: 0ms" — a fault at the exact run
// start).
func nonNegativeDuration(raw string) (sim.Duration, error) {
	d, err := parseDuration(raw)
	if err == nil && d < 0 {
		err = fmt.Errorf("duration must be ≥ 0, got %v", d)
	}
	return d, err
}

// parseRate reads a packet rate in Mpps: "2mpps", "500kpps",
// "14880952pps", or the word "line" for unshaped line rate.
func parseRate(raw string) (float64, error) {
	if raw == "line" {
		return 0, nil
	}
	num, unit := splitUnit(raw)
	var scale float64
	switch unit {
	case "mpps":
		scale = 1
	case "kpps":
		scale = 1e-3
	case "pps":
		scale = 1e-6
	case "":
		return 0, fmt.Errorf("%q is missing a unit — write e.g. \"2mpps\" (units: pps, kpps, mpps) or \"line\"", raw)
	default:
		return 0, fmt.Errorf("unknown unit %q in %q (units: pps, kpps, mpps; or \"line\")", unit, raw)
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || num == "" {
		return 0, fmt.Errorf("%q is not a rate — write e.g. \"2mpps\"", raw)
	}
	if v <= 0 {
		return 0, fmt.Errorf("rate must be positive, got %q", raw)
	}
	return v * scale, nil
}

// splitUnit splits "12.5ms" into ("12.5", "ms"). The unit is the
// trailing run of letters (lowercased); the number is everything
// before it.
func splitUnit(raw string) (num, unit string) {
	raw = strings.TrimSpace(raw)
	i := len(raw)
	for i > 0 {
		c := raw[i-1]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == 'µ' {
			i--
			continue
		}
		break
	}
	// Multi-byte µ: back up to the rune start if we landed mid-rune.
	for i > 0 && i < len(raw) && raw[i]&0xC0 == 0x80 {
		i--
	}
	return strings.TrimSpace(raw[:i]), strings.ToLower(raw[i:])
}
