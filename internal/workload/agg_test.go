package workload

import (
	"fmt"
	"testing"
)

// TestAggFlatVsTreeByteIdentical: same seed, no churn — the tree
// deployment's windowed counts are byte-identical to the flat
// aggregator's, and the tree erases the flat ingest hotspot.
func TestAggFlatVsTreeByteIdentical(t *testing.T) {
	run := func(mode string) *AggReport {
		cfg := DefaultAgg()
		cfg.Mode = mode
		cfg.Events = 64
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
		t.Fatalf("completeness flat=%.2f tree=%.2f, want 1/1", flat.Completeness(), tree.Completeness())
	}
	if fmt.Sprint(flat.Records) != fmt.Sprint(tree.Records) {
		t.Errorf("records differ:\n flat: %v\n tree: %v", flat.Records, tree.Records)
	}
	if tree.IngestMax >= flat.IngestMax {
		t.Errorf("tree max ingest %d did not beat flat hotspot %d", tree.IngestMax, flat.IngestMax)
	}
	if tree.IngestRatio() >= flat.IngestRatio() {
		t.Errorf("tree max/mean %.2f did not beat flat %.2f", tree.IngestRatio(), flat.IngestRatio())
	}
}

// TestAggTreeChurnLossless: interior crashes, graceful leaves and
// runtime joins while windows are open — with replay on, every windowed
// count still lands exactly right.
func TestAggTreeChurnLossless(t *testing.T) {
	cfg := DefaultAgg()
	cfg.Events = 96
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
	if rep.Repairs == 0 {
		t.Error("no supervisor repairs despite crashes")
	}
}

// TestAggTreeCrashWithoutReplayLoses: the same interior crash without
// the replay layer destroys accumulated window state — the measured
// contrast that makes the lossless rows meaningful.
func TestAggTreeCrashWithoutReplayLoses(t *testing.T) {
	cfg := DefaultAgg()
	cfg.Events = 64
	cfg.CrashEvery = 20
	cfg.Replay = false
	lab, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lab.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 {
		t.Fatal("no crashes injected")
	}
	if rep.Completeness() >= 1 {
		t.Errorf("completeness = %.3f with replay off; the crash should have cost state", rep.Completeness())
	}
}

// TestAggConfigValidation rejects nonsense configurations.
func TestAggConfigValidation(t *testing.T) {
	bad := []AggConfig{
		{Common: Common{Sources: 1, Workers: 2, Events: 10}, Mode: "tree"},
		{Common: Common{Sources: 4, Workers: 0, Events: 10}, Mode: "tree"},
		{Common: Common{Sources: 4, Workers: 2, Events: 10}, Mode: "pyramid"},
		{Common: Common{Sources: 4, Workers: 2, Events: 10, GrowFrom: 2}, Mode: "tree"},
	}
	for i, cfg := range bad {
		if _, err := New(&cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
