package workload

import (
	"testing"
	"time"
)

func TestChurnBaselineIsComplete(t *testing.T) {
	cfg := DefaultChurn()
	cfg.Events = 20
	cfg.CrashEvery = 0 // no churn
	lab, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lab.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completeness() != 1 {
		t.Errorf("baseline completeness = %.2f, want 1.0 (%d/%d)", rep.Completeness(), rep.Received, rep.Driven)
	}
	if rep.Crashes != 0 || rep.Deaths != 0 {
		t.Errorf("baseline saw churn: %+v", rep)
	}
}

func TestChurnMigratesRelayAndSurvives(t *testing.T) {
	cfg := DefaultChurn()
	cfg.Events = 40
	cfg.CrashEvery = 12
	cfg.MTTR = 8 * time.Second
	lab, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := lab.Victim()
	if start != "w0" {
		t.Fatalf("relay starts at %q, want w0", start)
	}
	rep, err := lab.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 || rep.Deaths != rep.Crashes {
		t.Fatalf("crashes=%d deaths=%d, want every crash detected", rep.Crashes, rep.Deaths)
	}
	if rep.Repairs < rep.Crashes {
		t.Errorf("repairs=%d < crashes=%d", rep.Repairs, rep.Crashes)
	}
	if lab.Victim() == start {
		t.Errorf("relay never migrated off %s", start)
	}
	// Events driven during outage windows are lost; everything else must
	// arrive.
	if rep.Completeness() <= 0.4 || rep.Completeness() >= 1 {
		t.Errorf("completeness = %.2f, want in (0.4, 1): outage loss only (%d/%d)", rep.Completeness(), rep.Received, rep.Driven)
	}
	if rep.Detections != rep.Deaths {
		t.Errorf("latency samples = %d, want %d", rep.Detections, rep.Deaths)
	}
	if rep.DetectionLatency() <= 0 {
		t.Errorf("detection latency mean = %v", rep.DetectionLatency())
	}
	if rep.Traffic.Dropped == 0 {
		t.Error("churn should drop messages on dead links")
	}
	if cfg.Workers >= 2 && rep.Received == 0 {
		t.Error("no results at all survived churn")
	}
}

func TestChurnConfigValidation(t *testing.T) {
	cfg := DefaultChurn()
	cfg.Workers = 1
	if _, err := New(&cfg); err == nil {
		t.Error("single-worker pool accepted")
	}
}

// TestChurnGossipDetectorLossless: with replay on, every crash is
// detected exactly once and the run ends lossless.
func TestChurnGossipDetectorLossless(t *testing.T) {
	cfg := DefaultChurn()
	cfg.Events = 40
	cfg.CrashEvery = 12
	cfg.Replay = true
	lab, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lab.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 {
		t.Fatal("no crashes injected — the schedule never fired")
	}
	if rep.Deaths != rep.Crashes {
		t.Errorf("deaths = %d, crashes = %d: gossip missed (or invented) a death", rep.Deaths, rep.Crashes)
	}
	if rep.Completeness() != 1 {
		t.Errorf("completeness = %.2f, want 1.0 (%d/%d, replayed %d)",
			rep.Completeness(), rep.Received, rep.Driven, rep.Replayed)
	}
	if rep.Replayed == 0 {
		t.Error("nothing replayed — recovery was luck, not retransmission")
	}
}

// TestChurnHomePartitionSurvivability: isolate the monitor peer, then
// crash the relay. Detection has no home to lose: the run stays lossless.
func TestChurnHomePartitionSurvivability(t *testing.T) {
	cfg := DefaultChurn()
	cfg.Events = 40
	cfg.CrashEvery = 12
	cfg.Replay = true
	cfg.PartitionHomeAfter = 5
	lab, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lab.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 {
		t.Error("no relay crash was injected after the partition")
	}
	if rep.Completeness() != 1 {
		t.Errorf("completeness = %.2f, want 1.0 despite the partitioned monitor (%d/%d)",
			rep.Completeness(), rep.Received, rep.Driven)
	}
	if rep.Repairs < rep.Crashes {
		t.Errorf("repairs = %d < crashes = %d", rep.Repairs, rep.Crashes)
	}
}
