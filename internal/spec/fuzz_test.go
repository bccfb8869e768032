package spec

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// fuzzNames are the names each input is parsed under: the YAML reader
// and the JSON reader.
var fuzzNames = []string{"name.yaml", "name.json"}

var anchored = regexp.MustCompile(`^name\.(yaml|json):[1-9][0-9]*: `)

// addSpecSeeds seeds f with every file of the example spec library and
// with the first half of each, which mostly fails to parse or validate.
func addSpecSeeds(f *testing.F) {
	files, err := filepath.Glob("../../examples/specs/*")
	if err != nil || len(files) == 0 {
		f.Fatalf("no example specs to seed from (%v)", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
		f.Add(src[:len(src)/2])
	}
}

func checkAnchored(t *testing.T, err error, src []byte) {
	t.Helper()
	if err != nil && !anchored.MatchString(err.Error()) {
		t.Fatalf("error is not line-anchored: %q\ninput: %q", err, src)
	}
}

// FuzzParse feeds arbitrary bytes through Parse and Compile: no input
// may panic, and every error must start with "name:LINE: ".
func FuzzParse(f *testing.F) {
	addSpecSeeds(f)
	f.Fuzz(func(t *testing.T, src []byte) {
		for _, name := range fuzzNames {
			d, err := Parse(src, name)
			if err == nil {
				_, _, err = d.Compile()
			}
			checkAnchored(t, err, src)
		}
	})
}

// FuzzParseFaults is FuzzParse for standalone fault-plan files.
func FuzzParseFaults(f *testing.F) {
	addSpecSeeds(f)
	f.Add([]byte("faults:\n  - kind: linkflap\n    at: 1ms\n    duration: 1ms\n    period: 4ms\n  - kind: clock-step\n    at: 2ms\n    offset: -250us\n"))
	f.Fuzz(func(t *testing.T, src []byte) {
		for _, name := range fuzzNames {
			_, err := ParseFaults(src, name)
			checkAnchored(t, err, src)
		}
	})
}
