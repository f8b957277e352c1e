package workload

import (
	"strings"
	"testing"
)

// TestChurnGrowsLosslessly: the grow-from-k-to-n scenario — the worker
// pool starts at 4, doubles through runtime joins while the crash
// schedule keeps killing the relay, and the run still ends lossless
// with gossip detection (no Watch pre-registration for the newcomers
// anywhere).
func TestChurnGrowsLosslessly(t *testing.T) {
	cfg := DefaultChurn()
	cfg.Workers = 8
	cfg.GrowFrom = 4
	cfg.JoinEvery = 10
	cfg.Events = 60
	cfg.CrashEvery = 15
	cfg.Replay = true
	lab, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lab.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Joins != 4 {
		t.Errorf("joins = %d, want 4 (w4..w7 admitted at runtime)", rep.Joins)
	}
	if rep.Crashes == 0 {
		t.Fatal("no crashes injected — the schedule never fired")
	}
	if rep.Repairs < rep.Crashes {
		t.Errorf("repairs = %d < crashes = %d", rep.Repairs, rep.Crashes)
	}
	if rep.Completeness() != 1 {
		t.Errorf("completeness = %.2f, want 1.0 (%d/%d, replayed %d)",
			rep.Completeness(), rep.Received, rep.Expected(), rep.Replayed)
	}
	// The admissions are on the timeline in join order.
	joins := 0
	for _, e := range rep.Timeline {
		if strings.Contains(e, " join ") {
			joins++
		}
	}
	if joins != 4 {
		t.Errorf("timeline records %d joins, want 4: %v", joins, rep.Timeline)
	}
}

// TestChurnFlapMixStaysLossless: an aggressive join/crash interleaving
// — admissions every 6 events, crashes every 9 — must neither lose
// events (replay on) nor wedge the drain logic: joined-then-crashed
// workers pair against the crash log as a multiset, so the stagnation
// bound still sees every injected crash detected.
func TestChurnFlapMixStaysLossless(t *testing.T) {
	cfg := DefaultChurn()
	cfg.Workers = 9
	cfg.GrowFrom = 4
	cfg.JoinEvery = 6
	cfg.Events = 72
	cfg.CrashEvery = 9
	cfg.MTTR = 8 * cfg.Step
	cfg.Replay = true
	lab, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lab.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Joins != 5 {
		t.Errorf("joins = %d, want 5", rep.Joins)
	}
	if rep.Crashes < 2 {
		t.Errorf("crashes = %d, want a real flapping mix", rep.Crashes)
	}
	if rep.Completeness() != 1 {
		t.Errorf("completeness = %.2f, want 1.0 (%d/%d)", rep.Completeness(), rep.Received, rep.Expected())
	}
	if rep.Detections != rep.Crashes {
		t.Errorf("latency samples = %d, want one per injected crash (%d) — the multiset pairing", rep.Detections, rep.Crashes)
	}
}

// TestChurnJoinTimelineDeterministic: the hard elastic requirement —
// same seed, same config ⇒ byte-identical join/crash/dead/recover
// timelines, with runtime joins enabled.
func TestChurnJoinTimelineDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs the elastic scenario twice; covered by the matrix job")
	}
	run := func() string {
		cfg := DefaultChurn()
		cfg.Workers = 8
		cfg.GrowFrom = 4
		cfg.JoinEvery = 8
		cfg.Events = 56
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
		return strings.Join(rep.Timeline, "\n")
	}
	a, b := run(), run()
	if a == "" {
		t.Fatal("schedule produced an empty timeline")
	}
	if a != b {
		t.Fatalf("same seed diverged:\n--- run1 ---\n%s\n--- run2 ---\n%s", a, b)
	}
}

// TestChurnJoinDuringHomePartition: workers keep joining while the old
// detector home is partitioned away — the gossip membership admits
// them, keeps detecting the real crashes, and the run stays lossless;
// the late joiners must not bridge the split back to the isolated home.
func TestChurnJoinDuringHomePartition(t *testing.T) {
	cfg := DefaultChurn()
	cfg.Workers = 7
	cfg.GrowFrom = 4
	cfg.JoinEvery = 10
	cfg.Events = 50
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
	if rep.Joins != 3 {
		t.Errorf("joins = %d, want 3 admitted behind the partition", rep.Joins)
	}
	for _, j := range rep.JoinLog {
		if lab.Sys.Net.Reachable(j.Peer, "mon") {
			t.Errorf("late joiner %s can reach the isolated home — the admission bridged the split", j.Peer)
		}
	}
	if rep.Crashes == 0 {
		t.Error("no relay crash was injected after the partition")
	}
	if rep.Completeness() != 1 {
		t.Errorf("completeness = %.2f, want 1.0 despite the partitioned home (%d/%d)",
			rep.Completeness(), rep.Received, rep.Expected())
	}
}

// TestChurnSpreadBoundsCheckpointLoad: many pipelines mean many
// checkpoint keys; with Spread on (virtual tokens + bounded-load
// placement) no peer serves more than ~2× the mean checkpoint traffic
// in steady state, while classic single-token placement concentrates a
// visible hotspot. Crash-free: the measurement isolates placement, not
// fault tolerance.
func TestChurnSpreadBoundsCheckpointLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: two full elastic runs; covered by the matrix job")
	}
	ratio := func(spread bool) (float64, uint64) {
		cfg := DefaultChurn()
		cfg.Workers = 8
		cfg.GrowFrom = 4
		cfg.JoinEvery = 10
		cfg.Events = 60
		cfg.CrashEvery = 0
		cfg.Replay = true
		cfg.Pipelines = 12
		cfg.Spread = spread
		lab, err := New(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := lab.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completeness() != 1 {
			t.Fatalf("spread=%v: completeness %.2f, want 1.0", spread, rep.Completeness())
		}
		load := lab.Sys.DB.CheckpointLoad()
		var total, max uint64
		for _, l := range load {
			total += l.Total()
			if l.Total() > max {
				max = l.Total()
			}
		}
		if total == 0 {
			t.Fatalf("spread=%v: no checkpoint traffic measured after growth", spread)
		}
		mean := float64(total) / float64(len(load))
		return float64(max) / mean, total
	}
	bounded, totalOn := ratio(true)
	hotspot, totalOff := ratio(false)
	if bounded > 2.01 {
		t.Errorf("spread-on max/mean checkpoint load = %.2f, want <= 2 (bounded-load guarantee)", bounded)
	}
	if hotspot <= bounded {
		t.Errorf("classic placement ratio %.2f not worse than spread ratio %.2f — the hotspot vanished?", hotspot, bounded)
	}
	if totalOn == 0 || totalOff == 0 {
		t.Error("one of the runs produced no checkpoint puts")
	}
}

// TestChurnJoinScheduleValidation: a join cadence that cannot admit
// every pending worker within the run is a config error, not a silent
// partial growth.
func TestChurnJoinScheduleValidation(t *testing.T) {
	cfg := DefaultChurn()
	cfg.Workers = 8
	cfg.GrowFrom = 4
	cfg.JoinEvery = 30 // 4 joins x 30 events > 60-event run
	cfg.Events = 60
	if _, err := New(&cfg); err == nil {
		t.Error("a join schedule that strands pending workers was accepted")
	}
}
