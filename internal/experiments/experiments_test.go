package experiments

import (
	"strings"
	"testing"
)

// TestAllExperimentsQuick runs every registered experiment at Quick scale
// and requires each paper claim's shape to hold. This is the repository's
// continuous reproduction check.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the full reproduction sweep runs in the matrix job")
	}
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
			if !strings.Contains(out, "paper:") || !strings.Contains(out, "claim shape:") {
				t.Errorf("rendering incomplete:\n%s", out)
			}
		})
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
