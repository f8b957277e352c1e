package workload

import (
	"strings"
	"testing"
)

// TestChurnGracefulLeaves: the relay host repeatedly leaves gracefully
// and rejoins; the handoff is lossless with zero detection cost — no
// death is ever declared — and the timeline records every departure and
// re-admission.
func TestChurnGracefulLeaves(t *testing.T) {
	t.Run("gossip", func(t *testing.T) {
		cfg := DefaultChurn()
		cfg.Replay = true
		cfg.CrashEvery = 0
		cfg.LeaveEvery = 15
		cfg.Events = 60
		lab, err := New(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := lab.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Leaves == 0 {
			t.Fatal("no graceful leaves injected")
		}
		if rep.LeaveRepairs == 0 {
			t.Error("leaves migrated nothing")
		}
		if rep.Deaths != 0 {
			t.Errorf("graceful departures were declared dead %d times", rep.Deaths)
		}
		if rep.Completeness() != 1 {
			t.Errorf("completeness = %.2f, want 1 (handoff must be lossless)", rep.Completeness())
		}
		leaves, rejoins := 0, 0
		for _, e := range rep.Timeline {
			if strings.Contains(e, " leave ") {
				leaves++
			}
			if strings.Contains(e, " rejoin ") {
				rejoins++
			}
		}
		if leaves != rep.Leaves || rejoins == 0 {
			t.Errorf("timeline records %d leaves / %d rejoins, report says %d leaves: %v",
				leaves, rejoins, rep.Leaves, rep.Timeline)
		}
	})
}

// TestChurnLeaveCrashMix: graceful departures interleaved with crashes —
// the two repair paths coexist and the run stays lossless.
func TestChurnLeaveCrashMix(t *testing.T) {
	cfg := DefaultChurn()
	cfg.Replay = true
	cfg.CrashEvery = 20
	cfg.LeaveEvery = 13
	cfg.Events = 80
	lab, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lab.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leaves == 0 || rep.Crashes == 0 {
		t.Fatalf("mix did not exercise both paths: %d leaves, %d crashes", rep.Leaves, rep.Crashes)
	}
	if rep.Completeness() != 1 {
		t.Errorf("completeness = %.2f, want 1", rep.Completeness())
	}
}
