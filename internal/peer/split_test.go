package peer

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"p2pm/internal/aggtree"
	"p2pm/internal/algebra"
)

// splitConfig arms the replay layer a split requires on
// top of an aggregation tree of the given degree.
func splitConfig(degree int) Config {
	opts := DefaultConfig()
	opts.Agg.Degree = degree
	opts.Replay.Buffer = 4096
	opts.Replay.CheckpointInterval = 2 * time.Second
	return opts
}

// firstLevelInterior finds a key-routed interior merging PartialAgg
// leaves directly — the only kind whose gauge moves mid-run and so the
// only split candidate.
func firstLevelInterior(task *Task) *algebra.Node {
	var target *algebra.Node
	task.Plan.Walk(func(n *algebra.Node) {
		if target != nil || n.Op != algebra.OpMergeAgg || n.AggKey == "" {
			return
		}
		for _, in := range n.Inputs {
			if in.Op != algebra.OpPartialAgg {
				return
			}
		}
		target = n
	})
	return target
}

// TestSplitInteriorMatchesFlat: re-chunking a running interior halves
// its fan-in and the final records stay byte-identical to the flat
// baseline — the mid-stream cut loses nothing and duplicates nothing.
func TestSplitInteriorMatchesFlat(t *testing.T) {
	const sources, workers, events = 8, 3, 64
	flatSys, flatTask := aggWorld(t, DefaultConfig(), sources, workers)
	driveAgg(t, flatSys, sources, events, time.Second)
	want := groupRecords(t, flatTask)
	if len(want) == 0 {
		t.Fatal("flat baseline produced no records")
	}

	sys, task := aggWorld(t, splitConfig(4), sources, workers)
	client := sys.Peer("client")
	var ev SplitEvent
	for i := 0; i < events; i++ {
		target := fmt.Sprintf("s%d", i%sources)
		if _, err := client.Endpoint().Invoke(target, "Q", nil); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		sys.Quiesce()
		sys.Step(time.Second)
		if i == events/2 {
			// Mid-window, mid-stream: the interior holds merged state
			// and its inputs hold unconsumed partials.
			n := firstLevelInterior(task)
			if n == nil {
				t.Fatal("no first-level interior in the tree")
			}
			fanIn := len(n.Inputs)
			var err error
			ev, err = sys.SplitInterior(task, n.AggKey)
			if err != nil {
				t.Fatalf("split: %v", err)
			}
			assertEdges(t, sys)
			if len(n.Inputs) != 2 || len(ev.Keys) != 2 {
				t.Fatalf("fan-in %d after splitting %d-ary interior, events %v", len(n.Inputs), fanIn, ev)
			}
			for _, m := range n.Inputs {
				if m.Op != algebra.OpMergeAgg || m.AggKey == "" {
					t.Fatalf("child %s of the split interior is not a key-routed merge", m.Label())
				}
				if len(m.Inputs) != fanIn/2 {
					t.Errorf("sub-interior %s fan-in = %d, want %d", m.AggKey, len(m.Inputs), fanIn/2)
				}
			}
		}
	}
	for i := 0; i < 8; i++ {
		sys.Step(time.Second)
	}
	got := groupRecords(t, task)
	if !equalRecords(got, want) {
		t.Errorf("post-split records differ from flat baseline:\n got: %v\nwant: %v", got, want)
	}
	if evs := sys.SplitEvents(); len(evs) != 1 || evs[0].Operator != ev.Operator {
		t.Errorf("split audit log = %v, want the one recorded event", evs)
	}
}

// TestSplitThenCrashExactlyOnce is the re-chunk-under-churn regression:
// the just-split interior's host crashes before another checkpoint
// cadence; failover must restore the new shape from the split's own
// checkpoint (the pre-split one has the wrong arity) and the output must
// still match the flat baseline.
func TestSplitThenCrashExactlyOnce(t *testing.T) {
	const sources, workers, events = 8, 3, 64
	flatSys, flatTask := aggWorld(t, DefaultConfig(), sources, workers)
	driveAgg(t, flatSys, sources, events, time.Second)
	want := groupRecords(t, flatTask)

	sys, task := aggWorld(t, splitConfig(4), sources, workers)
	client := sys.Peer("client")
	victim := ""
	for i := 0; i < events; i++ {
		target := fmt.Sprintf("s%d", i%sources)
		if _, err := client.Endpoint().Invoke(target, "Q", nil); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		sys.Quiesce()
		sys.Step(time.Second)
		switch i {
		case events / 2:
			n := firstLevelInterior(task)
			if n == nil {
				t.Fatal("no first-level interior")
			}
			if _, err := sys.SplitInterior(task, n.AggKey); err != nil {
				t.Fatalf("split: %v", err)
			}
			assertEdges(t, sys)
			victim = n.Peer
			sys.Net.Crash(victim)
		case events/2 + 3:
			evs := sys.FailPeer(victim, sys.Net.Clock().Now())
			assertEdges(t, sys)
			repaired := 0
			for _, ev := range evs {
				if ev.Repaired() {
					repaired++
				}
			}
			if repaired == 0 {
				t.Fatalf("no repairs after crashing split host %s (%v)", victim, evs)
			}
		}
	}
	for i := 0; i < 8; i++ {
		sys.Step(time.Second)
	}
	got := groupRecords(t, task)
	if !equalRecords(got, want) {
		t.Errorf("split+crash records differ from flat baseline:\n got: %v\nwant: %v", got, want)
	}
}

// TestRechunkControllerSplitsHotInterior: the load controller notices a
// skewed drive — one interior ingesting far above its tree's mean — and
// splits it without any direct actuation, and the records still match
// the flat baseline driven with the same skew.
func TestRechunkControllerSplitsHotInterior(t *testing.T) {
	const sources, workers, events = 8, 3, 96
	// Skew: five of every six events land on sources s0..s3 — the first
	// interior's leaves under Degree 4.
	skewTarget := func(i int) string {
		if i%6 == 5 {
			return fmt.Sprintf("s%d", 4+i%4)
		}
		return fmt.Sprintf("s%d", i%4)
	}
	flatSys, flatTask := aggWorld(t, DefaultConfig(), sources, workers)
	flatClient := flatSys.Peer("client")
	for i := 0; i < events; i++ {
		if _, err := flatClient.Endpoint().Invoke(skewTarget(i), "Q", nil); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		flatSys.Step(time.Second)
	}
	want := groupRecords(t, flatTask)

	opts := splitConfig(4)
	opts.Agg.SplitRatio = 1.5
	opts.Agg.SplitCooldown = 10 * time.Second
	sys, task := aggWorld(t, opts, sources, workers)
	client := sys.Peer("client")
	for i := 0; i < events; i++ {
		if _, err := client.Endpoint().Invoke(skewTarget(i), "Q", nil); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		sys.Quiesce()
		sys.Step(time.Second)
	}
	evs := sys.SplitEvents()
	if len(evs) == 0 {
		t.Fatal("controller never split the hot interior")
	}
	for i := 0; i < 8; i++ {
		sys.Step(time.Second)
	}
	got := groupRecords(t, task)
	if !equalRecords(got, want) {
		t.Errorf("controller-split records differ from flat baseline:\n got: %v\nwant: %v", got, want)
	}
}

// TestTuningMidRunDeterministic: actuating through the tuning surface
// mid-run — quarantining an interior's host, raising DHT replication,
// lifting the quarantine — while the split controller and the gossip
// detector run preserves seeded determinism (two identical runs produce
// identical records, split logs and interior placements) and
// exactly-once output (records match the flat baseline).
func TestTuningMidRunDeterministic(t *testing.T) {
	const sources, workers, events = 8, 3, 96
	skewTarget := func(i int) string {
		if i%6 == 5 {
			return fmt.Sprintf("s%d", 4+i%4)
		}
		return fmt.Sprintf("s%d", i%4)
	}
	flatSys, flatTask := aggWorld(t, DefaultConfig(), sources, workers)
	flatClient := flatSys.Peer("client")
	for i := 0; i < events; i++ {
		if _, err := flatClient.Endpoint().Invoke(skewTarget(i), "Q", nil); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		flatSys.Step(time.Second)
	}
	want := groupRecords(t, flatTask)

	// placement renders where every interior sits.
	placement := func(task *Task) string {
		var out []string
		task.Plan.Walk(func(n *algebra.Node) {
			if n.AggKey != "" {
				out = append(out, n.AggKey+"@"+n.Peer)
			}
		})
		sort.Strings(out)
		return fmt.Sprint(out)
	}
	run := func() ([]string, []SplitEvent, []string) {
		opts := splitConfig(4)
		opts.Agg.SplitRatio = 1.5
		opts.Agg.SplitCooldown = 10 * time.Second
		sys, task := aggWorld(t, opts, sources, workers)
		tun := sys.Tuning()
		sys.StartGossipDetector(GossipOptions{Seed: 11, ProbeInterval: time.Second})
		client := sys.Peer("client")
		var host string
		var trail []string
		for i := 0; i < events; i++ {
			if _, err := client.Endpoint().Invoke(skewTarget(i), "Q", nil); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
			sys.Quiesce()
			sys.Step(time.Second)
			switch i {
			case events / 3:
				host = firstLevelInterior(task).Peer
				tun.QuarantineAggHost(host)
				task.Plan.Walk(func(n *algebra.Node) {
					if n.AggKey != "" && n.Peer == host {
						t.Errorf("interior %s still on quarantined %s", n.AggKey, host)
					}
				})
				trail = append(trail, placement(task))
			case events / 2:
				tun.SetDHTReplication(3)
				if got := sys.Config().DHT.Replication; got != 3 {
					t.Errorf("Config reports replication %d after SetDHTReplication(3)", got)
				}
			case 2 * events / 3:
				tun.LiftQuarantine(host)
				trail = append(trail, placement(task))
			}
		}
		for i := 0; i < 8; i++ {
			sys.Step(time.Second)
		}
		return groupRecords(t, task), sys.SplitEvents(), trail
	}

	got1, splits1, trail1 := run()
	got2, splits2, trail2 := run()
	if len(splits1) == 0 {
		t.Fatal("the split controller never split — the scenario lost its teeth")
	}
	if fmt.Sprint(splits1) != fmt.Sprint(splits2) {
		t.Fatalf("same seed, different split timelines:\n run1: %v\n run2: %v", splits1, splits2)
	}
	if fmt.Sprint(trail1) != fmt.Sprint(trail2) {
		t.Fatalf("same seed, different placements:\n run1: %v\n run2: %v", trail1, trail2)
	}
	if !equalRecords(got1, got2) {
		t.Fatalf("same seed, different records:\n run1: %v\n run2: %v", got1, got2)
	}
	if !equalRecords(got1, want) {
		t.Errorf("tuned-run records differ from flat baseline:\n got: %v\nwant: %v", got1, want)
	}
}

// TestSplitGuards: a split refuses the Final root, unknown keys,
// dead hosts and systems without the replay layer.
func TestSplitGuards(t *testing.T) {
	sys, task := aggWorld(t, splitConfig(4), 8, 3)
	defer task.Stop()
	if _, err := sys.SplitInterior(task, ""); err == nil {
		t.Error("splitting the Final root was allowed")
	}
	if _, err := sys.SplitInterior(task, "no-such-key"); err == nil {
		t.Error("splitting an unknown key was allowed")
	}
	n := firstLevelInterior(task)
	sys.Net.Crash(n.Peer)
	if _, err := sys.SplitInterior(task, n.AggKey); err == nil {
		t.Error("splitting an interior on a dead host was allowed")
	}
	sys.Net.Recover(n.Peer)

	plain := DefaultConfig()
	plain.Agg.Degree = 4
	sys2, task2 := aggWorld(t, plain, 8, 3)
	defer task2.Stop()
	n2 := firstLevelInterior(task2)
	if _, err := sys2.SplitInterior(task2, n2.AggKey); err == nil {
		t.Error("split without the replay layer was allowed")
	}
}

var _ = aggtree.Interiors // keep the import stable across edits

// TestSplitRebalancesTreeWide: after a crash + failover moves interiors
// onto fallback hosts and the crashed worker recovers, the tree sits
// off its DHT-derived placement until the next membership event.
// SplitInterior must restore the invariant tree-wide at split time (via
// RebalanceAggTrees) — the recovered worker gets its interiors back —
// instead of leaving the placement stale, and the relocations must not
// disturb the output.
func TestSplitRebalancesTreeWide(t *testing.T) {
	const sources, workers, events = 16, 3, 48

	flatSys, flatTask := aggWorld(t, DefaultConfig(), sources, workers)
	driveAgg(t, flatSys, sources, events, time.Second)
	want := groupRecords(t, flatTask)
	if len(want) == 0 {
		t.Fatal("flat baseline produced no records")
	}

	sys, task := aggWorld(t, splitConfig(4), sources, workers)
	client := sys.Peer("client")
	victim := ""
	for i := 0; i < events; i++ {
		target := fmt.Sprintf("s%d", i%sources)
		if _, err := client.Endpoint().Invoke(target, "Q", nil); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		sys.Quiesce()
		sys.Step(time.Second)
		switch i {
		case events / 3:
			// Crash one interior host and repair: its interiors move to
			// fallback homes derived without it.
			task.Plan.Walk(func(n *algebra.Node) {
				if victim == "" && n.AggKey != "" {
					victim = n.Peer
				}
			})
			if victim == "" {
				t.Fatal("no interior host to crash")
			}
			sys.Net.Crash(victim)
			sys.FailPeer(victim, sys.Net.Clock().Now())
			assertEdges(t, sys)
		case events/3 + 3:
			// Recovery alone rebalances nothing: the derived placement
			// now includes the recovered worker again, so the tree is off
			// its homes — the staleness the split must clean up.
			sys.Net.Recover(victim)
			displaced := 0
			desired := sys.AggPlacements(task.Plan)
			task.Plan.Walk(func(m *algebra.Node) {
				if m.AggKey != "" && desired[m.AggKey] != "" && desired[m.AggKey] != m.Peer {
					displaced++
				}
			})
			if displaced == 0 {
				t.Fatal("recovery left no interior off its derived home; the scenario lost its teeth")
			}
		case events / 2:
			n := firstLevelInterior(task)
			if n == nil {
				t.Fatal("no first-level interior in the tree")
			}
			if _, err := sys.SplitInterior(task, n.AggKey); err != nil {
				t.Fatalf("split: %v", err)
			}
			assertEdges(t, sys)
			// The invariant: every live interior sits on its DHT-derived
			// home immediately after the split returns.
			desired := sys.AggPlacements(task.Plan)
			task.Plan.Walk(func(m *algebra.Node) {
				if m.AggKey == "" {
					return
				}
				if home := desired[m.AggKey]; home != "" && home != m.Peer {
					t.Errorf("interior %s on %s, derived home %s — split did not rebalance tree-wide", m.AggKey, m.Peer, home)
				}
			})
		}
	}
	for i := 0; i < 8; i++ {
		sys.Step(time.Second)
	}
	if got := groupRecords(t, task); !equalRecords(got, want) {
		t.Errorf("post-split records differ from flat baseline:\n got: %v\nwant: %v", got, want)
	}
}
