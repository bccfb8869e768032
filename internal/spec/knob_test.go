package spec

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// docType renders a knob's type and bounds the way the type column of
// docs/spec-reference.md spells them.
func docType(k *knob) string {
	switch k.kind {
	case durationKind:
		return "duration"
	case rateKind:
		return "rate"
	case boolKind:
		return "bool"
	case patternKind:
		return "string"
	}
	switch {
	case k.lo == math.MinInt64 && k.hi == math.MaxInt64:
		return "int"
	case k.hi == math.MaxInt32:
		return fmt.Sprintf("int ≥ %d", k.lo)
	}
	return fmt.Sprintf("int %d–%d", k.lo, k.hi)
}

// TestKnobsMatchReference pins the hand-written spec reference to the
// knob table: every knob has a table row for its key whose type cell
// states the knob's kind and bounds and whose text names its flag.
func TestKnobsMatchReference(t *testing.T) {
	raw, err := os.ReadFile("../../docs/spec-reference.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		key := strings.Trim(strings.TrimSpace(cells[1]), "`")
		rows[key] = cells
	}
	for _, k := range knobs {
		cells, ok := rows[k.key]
		if !ok {
			t.Errorf("docs/spec-reference.md has no table row for %q", k.key)
			continue
		}
		if got, want := strings.TrimSpace(cells[2]), docType(k); got != want {
			t.Errorf("%s: type cell %q, want %q", k.key, got, want)
		}
		if !strings.Contains(strings.Join(cells, "|"), "flag `-"+k.flag+"`") {
			t.Errorf("%s: row does not name its flag -%s", k.key, k.flag)
		}
	}
}

// TestKnobTableIsConsistent checks the table itself: keys and flags are
// unique, and a value given as a flag lands in the knob's spec field and
// renders back as the same flag text.
func TestKnobTableIsConsistent(t *testing.T) {
	keys, flags := map[string]bool{}, map[string]bool{}
	for _, k := range knobs {
		if keys[k.key] || flags[k.flag] {
			t.Errorf("knob %s / -%s declared twice", k.key, k.flag)
		}
		keys[k.key], flags[k.flag] = true, true

		text := map[kind]string{durationKind: "2", rateKind: "3", boolKind: "true", patternKind: "poisson"}[k.kind]
		if k.kind == intKind {
			text = strconv.FormatInt(k.hi, 10)
		}
		v, err := k.parse(text, true)
		if err != nil {
			t.Errorf("-%s %s: %v", k.flag, text, err)
			continue
		}
		var s scenario.Spec
		k.set(&s, v)
		if got := k.flagText(s); got != text {
			t.Errorf("-%s %s renders back as %q", k.flag, text, got)
		}
	}
}
