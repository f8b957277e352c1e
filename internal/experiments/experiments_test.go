package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/quick.golden from this run")

// hostTimed experiments are not pinned by the golden: their tables time
// the host (a µs column). Every other experiment's output is a function
// of the seed.
var hostTimed = map[string]bool{"C1": true, "C2": true, "C4": true, "C8": true, "C9": true}

var goldenPath = filepath.Join("testdata", "quick.golden")

// TestAllExperimentsQuick runs every registered experiment at Quick scale,
// requires each paper claim's shape to hold, and compares each rendering
// byte for byte with its section of testdata/quick.golden (except the
// hostTimed ones). This is the repository's continuous reproduction check.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the full reproduction sweep runs in the matrix job")
	}
	golden := readGolden(t)
	seen := map[string]bool{}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			if seen[r.ID] {
				t.Fatalf("duplicate experiment id %s", r.ID)
			}
			seen[r.ID] = true
			res, err := r.Run(Quick)
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != r.ID {
				t.Errorf("result id %s != %s", res.ID, r.ID)
			}
			if !res.Holds {
				t.Errorf("claim shape did not hold:\n%s", res)
			}
			out := res.String()
			switch {
			case hostTimed[r.ID]: // not pinned
			case *updateGolden:
				golden[r.ID] = out
			case out != golden[r.ID]:
				t.Errorf("%s: output moved at %s\nto accept it: go test ./internal/experiments -run 'TestAllExperimentsQuick/^%s$' -update-golden",
					r.ID, firstDiff(out, golden[r.ID]), r.ID)
			}
		})
	}
	if *updateGolden {
		var b strings.Builder
		for _, r := range All() {
			b.WriteString(golden[r.ID])
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenX2X6Quick: X2–X6 are pinned whole. None of them is host
// timed, and their golden sections hold every column that used to be
// masked as schedule-dependent. TestAllExperimentsQuick runs and compares
// them, so they run once per go test.
func TestGoldenX2X6Quick(t *testing.T) {
	golden := readGolden(t)
	var sections strings.Builder
	for _, id := range []string{"X2", "X3", "X4", "X5", "X6"} {
		if hostTimed[id] {
			t.Errorf("%s is exempt from the golden", id)
		}
		if !strings.HasPrefix(golden[id], "---- "+id+" ----\n") {
			t.Errorf("%s has no section in %s", id, goldenPath)
		}
		sections.WriteString(golden[id])
	}
	for _, col := range []string{"replayed", "msgs", "dropped", "bytes on wire", "repairs"} {
		if !strings.Contains(sections.String(), col) {
			t.Errorf("no X2–X6 table in %s has a %q column", goldenPath, col)
		}
	}
}

// readGolden splits testdata/quick.golden into its experiments' sections,
// each starting at the "---- ID ----" line that Result.String opens with.
func readGolden(t *testing.T) map[string]string {
	b, err := os.ReadFile(goldenPath)
	if err != nil && !*updateGolden {
		t.Fatal(err)
	}
	sections := map[string]string{}
	id := ""
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "----" && f[2] == "----" {
			if _, ok := Lookup(f[1]); ok {
				id = f[1]
			}
		}
		sections[id] += line
	}
	return sections
}

// firstDiff names the first line at which got departs from want.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		switch {
		case i == len(g) || i == len(w):
			return fmt.Sprintf("line %d: got %d lines, want %d", i+1, len(g), len(w))
		case g[i] != w[i]:
			return fmt.Sprintf("line %d\n  got:  %q\n  want: %q", i+1, g[i], w[i])
		}
	}
}

// TestRegistryComplete checks every experiment id `benchrun -list`
// promises is present.
func TestRegistryComplete(t *testing.T) {
	for _, want := range []string{"F1", "F2", "F3", "F4", "F5", "F6", "F7",
		"C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11",
		"X1", "X2", "X3", "X4", "X5", "X6"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("experiment %s not registered", want)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("f4"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := Lookup("Z9"); ok {
		t.Error("unknown id found")
	}
}

func TestOrdering(t *testing.T) {
	runners := All()
	var ids []string
	for _, r := range runners {
		ids = append(ids, r.ID)
	}
	// F's first, then C's in numeric order.
	joined := strings.Join(ids, ",")
	if !strings.HasPrefix(joined, "F1,F2,F3,F4,F5,F6,F7,C1,C2,") {
		t.Errorf("order = %s", joined)
	}
	if !strings.Contains(joined, "C9,C10,C11") {
		t.Errorf("numeric order broken: %s", joined)
	}
}
