package workload

import (
	"fmt"
	"strings"
	"testing"
)

// TestAggFnFlatVsTreeByteIdentical: every aggregate function — exact
// monoids and sketches alike — produces byte-identical records from the
// tree deployment and the flat aggregator at the same seed. For the
// sketches this is the monoid property at work: registers and counters
// depend only on the absorbed value multiset, not on how partials split
// and merge along the tree.
func TestAggFnFlatVsTreeByteIdentical(t *testing.T) {
	for _, fn := range []string{"sum", "min", "avg", "set", "distinct", "freq"} {
		t.Run(fn, func(t *testing.T) {
			run := func(mode string) *AggReport {
				cfg := DefaultAgg()
				cfg.Mode = mode
				cfg.Events = 48
				cfg.Fn = fn
				lab, err := New(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := lab.Run()
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			flat, tree := run("flat"), run("tree")
			if flat.Completeness() != 1 || tree.Completeness() != 1 {
				t.Fatalf("completeness flat=%.2f tree=%.2f, want 1/1\nflat records: %v",
					flat.Completeness(), tree.Completeness(), flat.Records)
			}
			if fmt.Sprint(flat.Records) != fmt.Sprint(tree.Records) {
				t.Errorf("records differ:\n flat: %v\n tree: %v", flat.Records, tree.Records)
			}
		})
	}
}

// TestAggSketchChurnLossless: HyperLogLog partials crossing a mid-window
// interior crash, repair and migration still merge into exactly the
// records a quiet run produces, and the delivered estimates stay inside
// the 2% accuracy gate against the exact replayed distinct counts.
func TestAggSketchChurnLossless(t *testing.T) {
	for _, fn := range []string{"distinct", "freq"} {
		t.Run(fn, func(t *testing.T) {
			cfg := DefaultAgg()
			cfg.Events = 96
			cfg.Fn = fn
			cfg.Users = 24
			cfg.CrashEvery = 24
			cfg.LeaveEvery = 17
			cfg.Workers = 4
			cfg.GrowFrom = 2
			cfg.JoinEvery = 20
			cfg.Replay = true
			lab, err := New(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := lab.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Crashes == 0 || rep.Leaves == 0 || rep.Joins == 0 {
				t.Fatalf("schedule did not fire: %d crashes, %d leaves, %d joins (timeline %v)",
					rep.Crashes, rep.Leaves, rep.Joins, rep.Timeline)
			}
			if rep.Completeness() != 1 {
				t.Errorf("completeness = %.3f (%d/%d correct), want 1; timeline %v",
					rep.Completeness(), rep.CorrectGroups, rep.ExpectedGroups, rep.Timeline)
			}
			if rep.Replayed == 0 {
				t.Error("no items replayed despite interior crashes")
			}
			if fn == "distinct" {
				if rep.SketchGroups != rep.ExpectedGroups {
					t.Errorf("scored %d/%d sketch groups", rep.SketchGroups, rep.ExpectedGroups)
				}
				if rep.MaxRelErr > 0.02 {
					t.Errorf("max rel err %.4f exceeds the 2%% gate", rep.MaxRelErr)
				}
			}
		})
	}
}

// TestAggCountByteCompatible: the generalized pipeline with Fn unset
// drives method Q and emits records containing only key/count/window —
// the exact shape the count-only implementation produced.
func TestAggCountByteCompatible(t *testing.T) {
	cfg := DefaultAgg()
	cfg.Events = 32
	lab, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lab.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fn != "count" || rep.Completeness() != 1 || len(rep.Records) == 0 {
		t.Fatalf("fn=%q completeness=%.2f records=%d", rep.Fn, rep.Completeness(), len(rep.Records))
	}
	for _, r := range rep.Records {
		if !strings.HasPrefix(r, `<group key=`) || !strings.Contains(r, ` count="`) {
			t.Fatalf("unexpected record shape %q", r)
		}
		if strings.Contains(r, "agg=") {
			t.Fatalf("count record leaked an agg attribute: %q", r)
		}
	}
}

// TestAggFnValidation rejects unknown aggregate functions.
func TestAggFnValidation(t *testing.T) {
	cfg := DefaultAgg()
	cfg.Fn = "median"
	if _, err := New(&cfg); err == nil {
		t.Error("accepted unknown aggregate fn")
	}
}
