package workload

import (
	"slices"
	"testing"
)

// adaptSeeds is how many seeds the adapt tests hold their conditions
// at: every seed from 1, not a picked one, so a change to a random draw
// cannot move the schedule onto a seed where they happen to hold.
const adaptSeeds = 40

// runAdapt is the shared three-mode harness: one scenario config, one
// run per mode and seed.
func runAdapt(t *testing.T, mode string, seed int64) *AdaptReport {
	t.Helper()
	cfg := DefaultAdapt()
	cfg.Mode, cfg.Seed = mode, seed
	lab, err := New(&cfg)
	if err != nil {
		t.Fatalf("%s setup: %v", mode, err)
	}
	rep, err := lab.Run()
	if err != nil {
		t.Fatalf("%s run: %v", mode, err)
	}
	return rep
}

// TestAdaptStaticTakesTheDamage: under the diurnal+hotspot profile the
// static configuration false-kills delayed-but-alive peers (including
// the slow worker itself) and churns failover repairs for them, while
// still catching the flapper's real crashes — at every seed.
func TestAdaptStaticTakesTheDamage(t *testing.T) {
	for seed := int64(1); seed <= adaptSeeds; seed++ {
		rep := runAdapt(t, "static", seed)
		if rep.FalseKills < 1 {
			t.Errorf("seed %d: static run false-killed nobody; the scenario has lost its trap (kills %v)", seed, rep.Kills)
		}
		if rep.TrueKills < 1 {
			t.Errorf("seed %d: static run missed the flapper's real crashes (kills %v)", seed, rep.Kills)
		}
		if rep.Splits != 0 {
			t.Errorf("seed %d: static run split %d interiors with the controller off", seed, rep.Splits)
		}
		if rep.HealthPeak != 0 {
			t.Errorf("seed %d: static run accumulated health %d with adaptive off", seed, rep.HealthPeak)
		}
		if rep.Quarantines != 0 || rep.ReplRaises != 0 {
			t.Errorf("seed %d: static run ran control actions: %d quarantines, %d replication raises",
				seed, rep.Quarantines, rep.ReplRaises)
		}
	}
}

// TestAdaptAdaptiveKillsNobodyFalsely is the headline acceptance: with
// the PR 9 control loops on, the same fault schedule produces zero
// false kills, still catches every real crash, splits the hot interior
// at runtime, and engages both trigger rules — while the published
// records stay byte-identical to the undisturbed flat deployment. It
// holds at every seed.
func TestAdaptAdaptiveKillsNobodyFalsely(t *testing.T) {
	for seed := int64(1); seed <= adaptSeeds; seed++ {
		flat := runAdapt(t, "flat", seed)
		if len(flat.Records) == 0 {
			t.Fatalf("seed %d: flat baseline produced no records", seed)
		}
		static := runAdapt(t, "static", seed)
		rep := runAdapt(t, "adaptive", seed)

		if rep.FalseKills != 0 {
			t.Errorf("seed %d: adaptive run false-killed %d peers: %v", seed, rep.FalseKills, rep.Kills)
		}
		if rep.TrueKills < 1 {
			t.Errorf("seed %d: adaptive run missed the flapper's real crashes (kills %v)", seed, rep.Kills)
		}
		if rep.HealthPeak == 0 {
			t.Errorf("seed %d: adaptive run never raised a health score under degraded links", seed)
		}
		if rep.Splits < 1 {
			t.Errorf("seed %d: adaptive run never split the hot interior", seed)
		}
		if static.PostRatio() > 0 && rep.PostRatio() > static.PostRatio() {
			t.Errorf("seed %d: post-split skew %.2f worse than static %.2f", seed, rep.PostRatio(), static.PostRatio())
		}
		if rep.Quarantines < 1 {
			t.Errorf("seed %d: quarantine rule never engaged on the flapper (events %d)", seed, rep.Quarantines)
		}
		if rep.ReplRaises < 1 {
			t.Errorf("seed %d: replication rule never engaged under the death burst", seed)
		}
		if !slices.Contains(rep.Quarantined, rep.Flapper) {
			t.Errorf("seed %d: flapper %s not in the teardown quarantine set %v", seed, rep.Flapper, rep.Quarantined)
		}
		if c := rep.Completeness(flat.Records); c != 1.0 {
			t.Errorf("seed %d: adaptive completeness %.3f vs flat, want 1.0", seed, c)
		}
		if !rep.Identical(flat.Records) {
			t.Errorf("seed %d: adaptive records not byte-identical to flat:\n got: %v\nwant: %v",
				seed, rep.Records, flat.Records)
		}
	}
}

// TestAdaptSetupRejectsBadConfigs: the validated constructor surface.
func TestAdaptSetupRejectsBadConfigs(t *testing.T) {
	bad := DefaultAdapt()
	bad.Mode = "chaotic"
	if _, err := New(&bad); err == nil {
		t.Error("unknown mode accepted")
	}
	bad = DefaultAdapt()
	bad.Degree = 3
	if _, err := New(&bad); err == nil {
		t.Error("degree below the split minimum accepted")
	}
	bad = DefaultAdapt()
	bad.Workers = 1
	if _, err := New(&bad); err == nil {
		t.Error("single-worker config accepted (no distinct flapper)")
	}
}
