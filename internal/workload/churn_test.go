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
	if rep.DetectionLatency.N() != rep.Deaths {
		t.Errorf("latency samples = %d, want %d", rep.DetectionLatency.N(), rep.Deaths)
	}
	if rep.DetectionLatency.Mean() <= 0 {
		t.Errorf("detection latency mean = %v", rep.DetectionLatency.Mean())
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

// TestChurnGossipDetectorLossless: the gossip detector mode reaches the
// same replay-on completeness as home mode under the same churn.
func TestChurnGossipDetectorLossless(t *testing.T) {
	cfg := DefaultChurn()
	cfg.Events = 40
	cfg.CrashEvery = 12
	cfg.Replay = true
	cfg.Detector = "gossip"
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
// crash the relay. Gossip mode stays lossless; home mode goes blind and
// demonstrably loses traffic.
func TestChurnHomePartitionSurvivability(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: two full survivability runs; covered by the matrix job")
	}
	run := func(detector string) *ChurnReport {
		cfg := DefaultChurn()
		cfg.Events = 40
		cfg.CrashEvery = 12
		cfg.Replay = true
		cfg.Detector = detector
		cfg.PartitionHomeAfter = 5
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
	g := run("gossip")
	if g.Crashes == 0 {
		t.Error("gossip: no relay crash was injected after the partition")
	}
	if g.Completeness() != 1 {
		t.Errorf("gossip: completeness = %.2f, want 1.0 despite the partitioned home (%d/%d)",
			g.Completeness(), g.Received, g.Driven)
	}
	if g.Repairs < g.Crashes {
		t.Errorf("gossip: repairs = %d < crashes = %d", g.Repairs, g.Crashes)
	}
	h := run("home")
	if h.Completeness() >= 1 {
		t.Errorf("home: completeness = %.2f; a partitioned home detector should lose traffic — the blindness gossip removes", h.Completeness())
	}
}
