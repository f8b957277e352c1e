package workload

import (
	"reflect"
	"testing"
	"time"
)

// TestChurnReplayIsLossless is the tentpole acceptance at workload
// level: with upstream replay buffers and operator checkpointing on, the
// same churn schedule that loses the outage windows in the lossy
// configuration delivers every driven event — completeness 1.0, via
// genuine retransmissions.
func TestChurnReplayIsLossless(t *testing.T) {
	cfg := DefaultChurn()
	cfg.Events = 60
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
	if rep.Crashes == 0 || rep.Deaths != rep.Crashes {
		t.Fatalf("crashes=%d deaths=%d: the schedule must actually churn", rep.Crashes, rep.Deaths)
	}
	if rep.Repairs < rep.Crashes {
		t.Errorf("repairs=%d < crashes=%d", rep.Repairs, rep.Crashes)
	}
	if rep.Completeness() != 1 {
		t.Errorf("completeness = %.3f (%d/%d), want exactly 1.0 with replay on",
			rep.Completeness(), rep.Received, rep.Driven)
	}
	if rep.Replayed == 0 {
		t.Error("no items were replayed: losslessness came for free, not from the replay layer")
	}
}

// TestChurnReplayBoundedBufferStillHelps: a retention buffer smaller
// than the full history still recovers outage losses as long as it
// covers the detection window.
func TestChurnReplayBoundedBufferStillHelps(t *testing.T) {
	cfg := DefaultChurn()
	cfg.Events = 60
	cfg.CrashEvery = 15
	cfg.Replay = true
	cfg.ReplayBuffer = 16 // ≫ suspicion window (2s ≈ 2 events), ≪ run length
	lab, err := New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lab.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 {
		t.Fatal("no crashes")
	}
	if rep.Completeness() != 1 {
		t.Errorf("completeness = %.3f with a 16-item buffer, want 1.0 (buffer must only cover the outage window)",
			rep.Completeness())
	}
}

// TestChurnDeterministicUnderSeed: two runs of the same seeded scenario
// report identical completeness and failover metrics — virtual-clock
// detection plus the replay layer make the outcome independent of
// wall-clock goroutine scheduling. Run with -race.
func TestChurnDeterministicUnderSeed(t *testing.T) {
	run := func() *ChurnReport {
		t.Helper()
		cfg := DefaultChurn()
		cfg.Seed = 7
		cfg.Events = 50
		cfg.CrashEvery = 10
		cfg.MTTR = 6 * time.Second
		cfg.Replay = true
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
	a, b := run(), run()
	if a.Completeness() != b.Completeness() || a.Received != b.Received || a.Driven != b.Driven {
		t.Errorf("completeness diverged: %d/%d vs %d/%d", a.Received, a.Driven, b.Received, b.Driven)
	}
	if a.Crashes != b.Crashes || a.Deaths != b.Deaths || a.Repairs != b.Repairs {
		t.Errorf("failover counts diverged: crashes %d/%d deaths %d/%d repairs %d/%d",
			a.Crashes, b.Crashes, a.Deaths, b.Deaths, a.Repairs, b.Repairs)
	}
	if a.Detections != b.Detections || a.DetectionLatency() != b.DetectionLatency() {
		t.Errorf("detection latency diverged: n=%d mean=%v vs n=%d mean=%v",
			a.Detections, a.DetectionLatency(),
			b.Detections, b.DetectionLatency())
	}
	if a.Completeness() != 1 {
		t.Errorf("deterministic runs should also be lossless: completeness = %.3f", a.Completeness())
	}
}

// TestLabDeterministicUnderSeed: a lab run is a function of its seed. The
// aggregation tree under crashes and graceful leaves, the flat aggregator
// under crashes and the shared multi-tenant trees are each run twice, and
// every RunStats field — the retransmission count and the network totals
// included — must match. Run with -race, at GOMAXPROCS 1 and 2.
func TestLabDeterministicUnderSeed(t *testing.T) {
	agg := func(mode string, leaveEvery int) func() (RunStats, error) {
		return func() (RunStats, error) {
			cfg := DefaultAgg()
			cfg.Mode, cfg.Replay = mode, true
			cfg.Events, cfg.CrashEvery, cfg.LeaveEvery = 160, 16, leaveEvery
			rep, err := Run(&cfg)
			if err != nil {
				return RunStats{}, err
			}
			return rep.RunStats, nil
		}
	}
	cases := []struct {
		name string
		run  func() (RunStats, error)
	}{
		{"agg tree crash+leave", agg("tree", 13)},
		{"agg flat crash", agg("flat", 0)},
		{"share crash+leave", func() (RunStats, error) {
			cfg := DefaultShare()
			cfg.Events, cfg.CrashEvery, cfg.LeaveEvery = 96, 28, 24
			rep, err := Run(&cfg)
			if err != nil {
				return RunStats{}, err
			}
			return rep.RunStats, nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if a.Crashes == 0 || a.Replayed == 0 {
				t.Fatalf("crashes %d, replayed %d: the schedule must exercise failover and replay", a.Crashes, a.Replayed)
			}
			va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
			for i := 0; i < va.NumField(); i++ {
				if fa, fb := va.Field(i).Interface(), vb.Field(i).Interface(); !reflect.DeepEqual(fa, fb) {
					t.Errorf("%s diverged:\n  %v\n  %v", va.Type().Field(i).Name, fa, fb)
				}
			}
		})
	}
}
