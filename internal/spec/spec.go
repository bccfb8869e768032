package spec

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Version is the spec schema version this build reads. Documents carry
// an explicit `version:` key; unknown versions are rejected rather than
// best-effort parsed, so a spec never silently means something else
// under a different build. See docs/spec-reference.md for the
// compatibility policy.
const Version = 1

// Document is a parsed scenario spec: the scenario it composes plus the
// overrides the file sets. What the file does not set falls through to
// the registered scenario's DefaultSpec at Compile time, so a spec only
// says what it changes.
//
// Parse performs the full schema walk (unknown keys, types, units);
// ApplyFlags adds the CLI's knob flags after the file's overrides;
// Compile applies them to the scenario's defaults and runs the semantic
// checks that need the merged view (pattern/rate coherence, link
// capacity, core sharding). Every error names the line or flag it comes
// from.
type Document struct {
	// File is the name errors are anchored to.
	File string
	// Scenario is the registered scenario the spec composes.
	Scenario string
	// Description is free-form text (reports and docs only).
	Description string

	scenarioLine int

	// overrides are the knob values set, in file order and then flags;
	// a later one for the same knob wins.
	overrides []override

	// The list-valued blocks; nil when the file leaves them out.
	mix    []scenario.SizeShare
	flows  []scenario.Flow
	faults fault.Plan

	flowsLine, faultsLine int
}

// Load reads and parses a spec file (YAML by default, JSON when the
// file is .json or starts with '{').
func Load(path string) (*Document, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(src, filepath.Base(path))
}

// Parse parses a spec from bytes; name labels error messages
// ("name:line: ...").
func Parse(src []byte, name string) (*Document, error) {
	root, err := parseTree(src, name)
	if err != nil {
		return nil, err
	}
	d := &Document{File: name}
	if err := d.walk(root); err != nil {
		return nil, err
	}
	return d, nil
}

// parseTree reads YAML by default, JSON when the name ends in .json or
// the source starts with '{'.
func parseTree(src []byte, name string) (*node, error) {
	if isJSON(src, name) {
		return parseJSON(name, src)
	}
	return parseYAML(name, src)
}

// LoadFaults reads a standalone fault-plan file: a document whose root
// holds only a `faults:` block, in exactly the schema the spec file's
// block uses. The CLI's -faults flag loads one onto any scenario.
func LoadFaults(path string) (fault.Plan, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseFaults(src, filepath.Base(path))
}

// ParseFaults parses a standalone fault plan from bytes; name labels
// error messages. The plan is validated fail-closed, target
// availability aside (that needs the topology and happens at Execute).
func ParseFaults(src []byte, name string) (fault.Plan, error) {
	root, err := parseTree(src, name)
	if err != nil {
		return nil, err
	}
	d := &Document{File: name}
	if root.kind != mapNode {
		return nil, d.errAt(root.line, "a fault-plan file must be a mapping with a \"faults\" block, got a %s", root.kindName())
	}
	if err := d.checkKeys(root, []string{"faults"}, ""); err != nil {
		return nil, err
	}
	n, line, ok := root.get("faults")
	if !ok {
		return nil, d.errAt(1, "missing required key \"faults\" (a list of fault event mappings)")
	}
	if err := d.walkFaults(n, line); err != nil {
		return nil, err
	}
	if err := d.faults.Validate(); err != nil {
		return nil, d.errAt(line, "faults: %v", err)
	}
	return d.faults, nil
}

// Validate parses and compiles a spec, returning the first error. This
// is the entry point the docs CI job drives fenced `yaml` snippets
// through: a snippet that validates is a snippet that runs.
func Validate(src []byte, name string) error {
	d, err := Parse(src, name)
	if err != nil {
		return err
	}
	_, _, err = d.Compile()
	return err
}

// Compile resolves the document into a runnable (scenario name,
// scenario.Spec) pair: the registered scenario's DefaultSpec with every
// override applied, then semantically validated as a whole. All
// interpretation happens here, at load time — the returned Spec drives
// exactly the same compiled-Go path as `moongen <name>`, so nothing
// spec-shaped survives into the hot path.
func (d *Document) Compile() (string, scenario.Spec, error) {
	return d.CompileWith(nil)
}

// CompileWith is Compile with edit applied to the merged spec before the
// checks run (the CLI resizes the flow set there); edit may be nil.
func (d *Document) CompileWith(edit func(*scenario.Spec) error) (string, scenario.Spec, error) {
	sc, s, err := d.merge()
	if err == nil && edit != nil {
		err = edit(&s)
	}
	if err == nil {
		err = d.check(sc, s)
	}
	if err != nil {
		return "", scenario.Spec{}, err
	}
	return d.Scenario, s, nil
}

// merge applies the document to its scenario's DefaultSpec, unchecked.
func (d *Document) merge() (scenario.Scenario, scenario.Spec, error) {
	sc, ok := scenario.Get(d.Scenario)
	if !ok {
		return nil, scenario.Spec{}, d.errAt(d.scenarioLine,
			"scenario: unknown scenario %q (available: %s)", d.Scenario, strings.Join(scenario.Names(), ", "))
	}
	s := sc.DefaultSpec()
	for _, o := range d.overrides {
		o.k.set(&s, o.val)
	}
	if d.mix != nil {
		s.Mix = d.mix
	}
	if d.flows != nil {
		s.Flows = d.flows
	}
	if d.faults != nil {
		// An explicit `faults:` block replaces the scenario's default
		// plan entirely — `faults: []` runs the scenario fault-free.
		s.Faults = d.faults
	}
	return sc, s, nil
}

// check runs the semantic validations that need the merged
// (defaults + overrides) view of the spec. A block's error anchors to
// the block's line, or to the scenario line when the block came from
// the defaults.
func (d *Document) check(sc scenario.Scenario, s scenario.Spec) error {
	if err := scenario.CheckCores(sc, s); err != nil {
		return d.errFor("cores", "%v", err)
	}

	if s.Pattern != scenario.PatternLineRate && s.Pattern != "" && s.RateMpps <= 0 && !flowsCarryRate(s) {
		return d.errFor("load.pattern", "pattern %q needs a rate; set load.rate (e.g. \"2mpps\")", s.Pattern)
	}

	// The cbr pattern models the NIC's hardware shaper, which cannot
	// oversubscribe the link — a spec asking for more than line rate is
	// a mistake, not an overload experiment (softcbr models overload:
	// it pushes the exact software grid regardless of wire capacity and
	// lets the link drop).
	if s.Pattern == scenario.PatternCBR {
		size := s.PktSize
		if size <= 0 {
			size = 60
		}
		capMpps := wire.LineRatePPS(wire.Speed10G, size+proto.FCSLen) / 1e6
		if s.RateMpps > capMpps {
			return d.errFor("load.rate",
				"%g Mpps exceeds the 10GbE line rate (%.2f Mpps at %d-byte frames) — the cbr hardware shaper cannot oversubscribe the link; use pattern softcbr to model overload",
				s.RateMpps, capMpps, size+proto.FCSLen)
		}
		for _, f := range s.Flows {
			if f.RateMpps <= 0 {
				continue
			}
			fsize := f.PktSize
			if fsize <= 0 {
				fsize = size
			}
			fcap := wire.LineRatePPS(wire.Speed10G, fsize+proto.FCSLen) / 1e6
			if f.RateMpps > fcap {
				return d.errAt(cmp.Or(d.flowsLine, d.scenarioLine),
					"flows: flow %q rate %g Mpps exceeds the 10GbE line rate (%.2f Mpps at %d-byte frames)",
					f.Name, f.RateMpps, fcap, fsize+proto.FCSLen)
			}
		}
	}

	// Fault plans are fail-closed at load time: a plan the injector
	// would reject (or one whose targets the topology cannot provide)
	// is a spec error with a line anchor, not a runtime surprise.
	if err := scenario.CheckFaults(s); err != nil {
		return d.errAt(cmp.Or(d.faultsLine, d.scenarioLine), "faults: %v", err)
	}

	seen := map[string]bool{}
	for _, f := range s.Flows {
		if seen[f.Name] {
			return d.errAt(cmp.Or(d.flowsLine, d.scenarioLine), "flows: duplicate flow name %q (reports merge per-flow stats by name)", f.Name)
		}
		seen[f.Name] = true
	}
	return nil
}

// flowsCarryRate reports whether every declared flow has its own rate,
// which satisfies rate-requiring patterns without an aggregate rate
// (the qos shape: per-flow hardware shaping).
func flowsCarryRate(s scenario.Spec) bool {
	if len(s.Flows) == 0 {
		return false
	}
	for _, f := range s.Flows {
		if f.RateMpps <= 0 {
			return false
		}
	}
	return true
}

func isJSON(src []byte, name string) bool {
	if strings.HasSuffix(name, ".json") {
		return true
	}
	for _, b := range src {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		case '{':
			return true
		default:
			return false
		}
	}
	return false
}

// errAt anchors an error to a source line, or to the file alone when
// line is 0 (a document built for a named scenario has no lines).
func (d *Document) errAt(line int, format string, args ...any) error {
	if line == 0 {
		return fmt.Errorf("%s: %s", d.File, fmt.Sprintf(format, args...))
	}
	return fmt.Errorf("%s:%d: %s", d.File, line, fmt.Sprintf(format, args...))
}

// errFor anchors a check on the knob at key to whatever set it last:
// its flag, its spec line, or else the scenario line.
func (d *Document) errFor(key, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	for i := len(d.overrides) - 1; i >= 0; i-- {
		if o := d.overrides[i]; o.k.key == key {
			if o.line == 0 {
				return fmt.Errorf("-%s: %s", o.k.flag, msg)
			}
			return d.errAt(o.line, "%s: %s", key, msg)
		}
	}
	return d.errAt(d.scenarioLine, "%s: %s", key, msg)
}

// ---------------------------------------------------------------------
// Schema walk
// ---------------------------------------------------------------------

// headerKeys are the top-level keys that name the document rather than
// set a knob.
var headerKeys = []string{"version", "scenario", "description"}

// blocks are the list-valued keys; each has its own walker.
var blocks = map[string]func(*Document, *node, int) error{
	"load.mix": (*Document).walkMix,
	"flows":    (*Document).walkFlows,
	"faults":   (*Document).walkFaults,
}

var mixKeys = []string{"size", "weight"}
var flowKeys = []string{"name", "l4", "src_ip", "src_ip_count", "dst_ip", "src_port", "dst_port", "tos", "rate", "size"}
var faultKeys = []string{"kind", "at", "duration", "period", "count", "flush", "offset", "drift_ppm"}

func (d *Document) walk(root *node) error {
	if root.kind != mapNode {
		return d.errAt(root.line, "the document root must be a mapping (\"key: value\" lines), got a %s", root.kindName())
	}
	if err := d.checkKeys(root, allowedKeys[""], ""); err != nil {
		return err
	}

	vn, line, ok := root.get("version")
	if !ok {
		return d.errAt(1, "missing required key \"version\" (this build reads version %d)", Version)
	}
	v, err := field(d, vn, line, "version", intIn(1, math.MaxInt32))
	if err != nil {
		return err
	}
	if v != Version {
		return d.errAt(line, "version: unsupported spec version %d (this build reads version %d); see docs/spec-reference.md for the compatibility policy", v, Version)
	}

	sn, line, ok := root.get("scenario")
	if !ok {
		return d.errAt(1, "missing required key \"scenario\" (one of: %s)", strings.Join(scenario.Names(), ", "))
	}
	if d.Scenario, err = field(d, sn, line, "scenario", parseStr); err != nil {
		return err
	}
	d.scenarioLine = line

	if err := opt(d, root, "", "description", parseStr, func(v string) { d.Description = v }); err != nil {
		return err
	}
	return d.walkMap(root, "")
}

// walkMap reads the knobs, sections and blocks of mapping m, whose keys
// sit at path prefix ("" at the root, "load." inside load).
func (d *Document) walkMap(m *node, prefix string) error {
	for i, key := range m.keys {
		n, line, path := m.vals[i], m.keyLines[i], prefix+key
		if k := knobAt(path); k != nil {
			v, err := field(d, n, line, path, func(raw string) (any, error) { return k.parse(raw, false) })
			if err != nil {
				return err
			}
			d.overrides = append(d.overrides, override{k: k, val: v, line: line})
			continue
		}
		if walk := blocks[path]; walk != nil {
			if err := walk(d, n, line); err != nil {
				return err
			}
			continue
		}
		if prefix == "" && slices.Contains(headerKeys, key) {
			continue
		}
		// checkKeys admitted it, so it is a section of knobs.
		if n.kind != mapNode {
			return d.errAt(line, "%s: expected a mapping, got a %s", path, n.kindName())
		}
		if err := d.checkKeys(n, allowedKeys[path+"."], path+"."); err != nil {
			return err
		}
		if err := d.walkMap(n, path+"."); err != nil {
			return err
		}
	}
	return nil
}

func knobAt(key string) *knob {
	for _, k := range knobs {
		if k.key == key {
			return k
		}
	}
	return nil
}

// allowedKeys maps the path prefix of each mapping ("" at the root,
// "load." inside load) to the keys it admits, sorted. Keys nest at most
// one section deep.
var allowedKeys = func() map[string][]string {
	m := map[string][]string{"": slices.Clone(headerKeys)}
	add := func(prefix, key string) {
		if !slices.Contains(m[prefix], key) {
			m[prefix] = append(m[prefix], key)
		}
	}
	paths := slices.Collect(maps.Keys(blocks))
	for _, k := range knobs {
		paths = append(paths, k.key)
	}
	for _, path := range paths {
		section, key, nested := strings.Cut(path, ".")
		add("", section)
		if nested {
			add(section+".", key)
		}
	}
	for _, keys := range m {
		slices.Sort(keys)
	}
	return m
}()

func (d *Document) walkMix(n *node, line int) error {
	if n.kind != listNode {
		return d.errAt(line, "load.mix: expected a list of {size, weight} entries, got a %s", n.kindName())
	}
	mix := make([]scenario.SizeShare, 0, len(n.items))
	for _, item := range n.items {
		if item.kind != mapNode {
			return d.errAt(item.line, "load.mix: each entry must be a {size, weight} mapping, got a %s", item.kindName())
		}
		if err := d.checkKeys(item, mixKeys, "load.mix."); err != nil {
			return err
		}
		var share scenario.SizeShare
		for _, key := range mixKeys {
			if _, _, ok := item.get(key); !ok {
				return d.errAt(item.line, "load.mix: entry is missing %q", key)
			}
		}
		if err := cmp.Or(
			opt(d, item, "load.mix.", "size", intIn(minFrame, maxFrame), func(v int64) { share.Size = int(v) }),
			opt(d, item, "load.mix.", "weight", intIn(1, math.MaxInt32), func(v int64) { share.Weight = int(v) }),
		); err != nil {
			return err
		}
		mix = append(mix, share)
	}
	if len(mix) == 0 {
		return d.errAt(line, "load.mix: the mix cannot be empty")
	}
	d.mix = mix
	return nil
}

func (d *Document) walkFlows(n *node, line int) error {
	if n.kind != listNode {
		return d.errAt(line, "flows: expected a list of flow mappings, got a %s", n.kindName())
	}
	d.flowsLine = line
	d.flows = make([]scenario.Flow, 0, len(n.items))
	for i, item := range n.items {
		if item.kind != mapNode {
			return d.errAt(item.line, "flows: each entry must be a mapping, got a %s", item.kindName())
		}
		if err := d.checkKeys(item, flowKeys, "flows."); err != nil {
			return err
		}
		f := scenario.Flow{Name: fmt.Sprintf("f%d", i), L4: "udp"}
		if err := opt(d, item, "flows.", "name", parseStr, func(v string) { f.Name = v }); err != nil {
			return err
		}
		for _, key := range []string{"src_ip", "dst_ip"} {
			if _, _, ok := item.get(key); !ok {
				return d.errAt(item.line, "flows: flow %q is missing %q", f.Name, key)
			}
		}
		if err := cmp.Or(
			opt(d, item, "flows.", "l4", parseL4, func(v string) { f.L4 = v }),
			opt(d, item, "flows.", "src_ip", parseIP, func(v proto.IPv4) { f.SrcIP = v }),
			opt(d, item, "flows.", "src_ip_count", intIn(1, 1<<24), func(v int64) { f.SrcIPCount = int(v) }),
			opt(d, item, "flows.", "dst_ip", parseIP, func(v proto.IPv4) { f.DstIP = v }),
			opt(d, item, "flows.", "src_port", intIn(0, 65535), func(v int64) { f.SrcPort = uint16(v) }),
			opt(d, item, "flows.", "dst_port", intIn(0, 65535), func(v int64) { f.DstPort = uint16(v) }),
			opt(d, item, "flows.", "tos", intIn(0, 255), func(v int64) { f.TOS = uint8(v) }),
			opt(d, item, "flows.", "rate", parseRate, func(v float64) { f.RateMpps = v }),
			opt(d, item, "flows.", "size", intIn(minFrame, maxFrame), func(v int64) { f.PktSize = int(v) }),
		); err != nil {
			return err
		}
		d.flows = append(d.flows, f)
	}
	return nil
}

func parseL4(raw string) (string, error) {
	if raw != "udp" && raw != "tcp" {
		return "", fmt.Errorf("unknown transport %q (one of: udp, tcp)", raw)
	}
	return raw, nil
}

// walkFaults reads the `faults:` block — a list of typed fault events
// executed on the run's global sim-time grid (see internal/fault). The
// walk checks keys, types and units per event; plan-level coherence
// (window/period arithmetic, kind-specific field rules, target
// availability) runs in check against the merged spec, still anchored
// to this block's line.
func (d *Document) walkFaults(n *node, line int) error {
	if n.kind != listNode {
		return d.errAt(line, "faults: expected a list of fault event mappings, got a %s", n.kindName())
	}
	d.faultsLine = line
	d.faults = make(fault.Plan, 0, len(n.items))
	for _, item := range n.items {
		if item.kind != mapNode {
			return d.errAt(item.line, "faults: each entry must be a mapping, got a %s", item.kindName())
		}
		if err := d.checkKeys(item, faultKeys, "faults."); err != nil {
			return err
		}
		if _, _, ok := item.get("kind"); !ok {
			return d.errAt(item.line, "faults: event is missing \"kind\" (one of: linkflap, dut-stall, queue-pause, clock-step)")
		}
		var ev fault.Event
		if err := cmp.Or(
			opt(d, item, "faults.", "kind", parseFaultKind, func(v fault.Kind) { ev.Kind = v }),
			opt(d, item, "faults.", "at", nonNegativeDuration, func(v sim.Duration) { ev.At = v }),
			opt(d, item, "faults.", "duration", positiveDuration, func(v sim.Duration) { ev.Duration = v }),
			opt(d, item, "faults.", "period", positiveDuration, func(v sim.Duration) { ev.Period = v }),
			opt(d, item, "faults.", "count", intIn(1, math.MaxInt32), func(v int64) { ev.Count = int(v) }),
			opt(d, item, "faults.", "flush", parseBool, func(v bool) { ev.Flush = v }),
			// A clock step may go backwards: signed duration.
			opt(d, item, "faults.", "offset", parseDuration, func(v sim.Duration) { ev.Offset = v }),
			opt(d, item, "faults.", "drift_ppm", parseNumber, func(v float64) { ev.DriftPPM = v }),
		); err != nil {
			return err
		}
		d.faults = append(d.faults, ev)
	}
	return nil
}

func parseFaultKind(raw string) (fault.Kind, error) {
	switch k := fault.Kind(raw); k {
	case fault.LinkFlap, fault.DuTStall, fault.QueuePause, fault.ClockStep:
		return k, nil
	}
	return "", fmt.Errorf("unknown fault kind %q (one of: linkflap, dut-stall, queue-pause, clock-step)", raw)
}

// checkKeys rejects keys outside the allowed set, with a "did you
// mean" suggestion when a known key is within edit distance 2. The
// schema is fail-closed on purpose: a typoed key that silently
// defaulted would corrupt an experiment without a trace.
func (d *Document) checkKeys(n *node, allowed []string, prefix string) error {
	for i, k := range n.keys {
		if slices.Contains(allowed, k) {
			continue
		}
		msg := fmt.Sprintf("unknown key %q", prefix+k)
		if s := suggest(k, allowed); s != "" {
			msg += fmt.Sprintf(" (did you mean %q?)", prefix+s)
		} else {
			msg += fmt.Sprintf(" (valid keys: %s)", strings.Join(slices.Sorted(slices.Values(allowed)), ", "))
		}
		return d.errAt(n.keyLines[i], "%s", msg)
	}
	return nil
}

// suggest returns the closest allowed key within edit distance 2.
func suggest(key string, allowed []string) string {
	best, bestDist := "", 3
	for _, a := range allowed {
		if dist := editDistance(key, a); dist < bestDist {
			best, bestDist = a, dist
		}
	}
	return best
}

func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(min(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
