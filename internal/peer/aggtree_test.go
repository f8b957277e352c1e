package peer

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"p2pm/internal/aggtree"
	"p2pm/internal/algebra"
	"p2pm/internal/xmltree"
)

// aggWorld assembles an aggregation deployment: sources s0..sS-1 each
// host a monitored service and a ws-in alerter, workers w0..wW-1 are the
// merge-host pool (the aggHosts filter keeps DHT-routed interiors on
// them), the flat plan Group(Union(alerters)) sits at w0 and publishes
// at mgr. With opts.Agg.Degree set, deployment decomposes it into a tree.
func aggWorld(t *testing.T, opts Config, sources, workers int) (*System, *Task) {
	t.Helper()
	sys := MustSystem(opts)
	mgr := sys.MustAddPeer("mgr")
	sys.MustAddPeer("client")
	for i := 0; i < sources; i++ {
		sp := sys.MustAddPeer(fmt.Sprintf("s%d", i))
		sp.Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
			return xmltree.Elem("ok"), nil
		}, nil)
	}
	for i := 0; i < workers; i++ {
		sys.MustAddPeer(fmt.Sprintf("w%d", i))
	}
	sys.SetAggHosts(func(name string) bool { return name[0] == 'w' })
	task, err := mgr.DeployPlan(countPlan(sources, "agg"))
	if err != nil {
		t.Fatal(err)
	}
	return sys, task
}

// countPlan is the flat windowed count-per-callee over sources
// s0..s(n-1): Group(Union(alerters)) at w0, published at mgr.
func countPlan(n int, channel string) *algebra.Node {
	var branches []*algebra.Node
	for i := 0; i < n; i++ {
		branches = append(branches, algebra.NewAlerter("inCOM", "ws-in", fmt.Sprintf("s%d", i), "e", nil))
	}
	union := &algebra.Node{Op: algebra.OpUnion, Peer: "w0", Inputs: branches, Schema: []string{"e"}}
	group := &algebra.Node{
		Op: algebra.OpGroup, Peer: "w0", Inputs: []*algebra.Node{union},
		Schema: []string{"e"}, Group: &algebra.GroupSpec{KeyAttr: "callee", Window: "10s"},
	}
	return &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{group},
		Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: channel},
	}
}

// driveAgg invokes the sources round-robin, one event per virtual step.
func driveAgg(t *testing.T, sys *System, sources, events int, step time.Duration) {
	t.Helper()
	client := sys.Peer("client")
	for i := 0; i < events; i++ {
		target := fmt.Sprintf("s%d", i%sources)
		if _, err := client.Endpoint().Invoke(target, "Q", nil); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		sys.Step(step)
	}
}

// groupRecords drains and canonicalizes a task's result records.
func groupRecords(t *testing.T, task *Task) []string {
	t.Helper()
	task.Stop()
	var out []string
	for _, it := range task.Results().Drain() {
		out = append(out, it.Tree.String())
	}
	sort.Strings(out)
	return out
}

func equalRecords(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAggTreeDeployMatchesFlat: the planner decomposes a wide windowed
// aggregation into a partial/merge tree whose final records are
// byte-identical to the flat single-aggregator deployment of the same
// plan, and the union's O(n) ingest hotspot disappears.
func TestAggTreeDeployMatchesFlat(t *testing.T) {
	const sources, workers, events = 6, 3, 48
	flatSys, flatTask := aggWorld(t, DefaultConfig(), sources, workers)
	driveAgg(t, flatSys, sources, events, time.Second)
	want := groupRecords(t, flatTask)
	if len(want) == 0 {
		t.Fatal("flat baseline produced no records")
	}

	opts := DefaultConfig()
	opts.Agg.Degree = 3
	treeSys, treeTask := aggWorld(t, opts, sources, workers)
	leaves, interiors := 0, 0
	treeTask.Plan.Walk(func(n *algebra.Node) {
		switch n.Op {
		case algebra.OpPartialAgg:
			leaves++
		case algebra.OpMergeAgg:
			interiors++
		case algebra.OpUnion, algebra.OpGroup:
			t.Errorf("flat operator %s survived the rewrite", n.Label())
		}
	})
	if leaves != sources || interiors < 2 {
		t.Fatalf("tree shape: %d leaves, %d merges", leaves, interiors)
	}
	desired := treeSys.AggPlacements(treeTask.Plan)
	for _, n := range aggtree.Interiors(treeTask.Plan) {
		if n.Peer[0] != 'w' {
			t.Errorf("interior %s placed at %s, outside the worker pool", n.Label(), n.Peer)
		}
		if desired[n.AggKey] != n.Peer {
			t.Errorf("interior %s at %s, bounded placement says %s", n.Label(), n.Peer, desired[n.AggKey])
		}
	}
	driveAgg(t, treeSys, sources, events, time.Second)
	got := groupRecords(t, treeTask)
	if !equalRecords(got, want) {
		t.Errorf("tree records differ from flat:\n tree: %v\n flat: %v", got, want)
	}
}

// TestAggTreeTwoTreesPlacementInvariant: a plan holding TWO decomposed
// aggregations must deploy every interior exactly where AggPlacements
// re-derives it — the root of the first tree consumes no placer state,
// so the second tree's keys see the same bounded-placement walk on
// deployment and on every later re-derivation (repair, rebalance).
func TestAggTreeTwoTreesPlacementInvariant(t *testing.T) {
	opts := DefaultConfig()
	opts.Agg.Degree = 2
	sys := MustSystem(opts)
	mgr := sys.MustAddPeer("mgr")
	mkGroup := func(lo, hi int) *algebra.Node {
		var branches []*algebra.Node
		for i := lo; i < hi; i++ {
			name := fmt.Sprintf("s%d", i)
			if sys.Peer(name) == nil {
				sp := sys.MustAddPeer(name)
				sp.Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
					return xmltree.Elem("ok"), nil
				}, nil)
			}
			branches = append(branches, algebra.NewAlerter("inCOM", "ws-in", name, "e", nil))
		}
		union := &algebra.Node{Op: algebra.OpUnion, Peer: "w0", Inputs: branches, Schema: []string{"e"}}
		return &algebra.Node{
			Op: algebra.OpGroup, Peer: "w0", Inputs: []*algebra.Node{union},
			Schema: []string{"e"}, Group: &algebra.GroupSpec{KeyAttr: "callee", Window: "10s"},
		}
	}
	for i := 0; i < 3; i++ {
		sys.MustAddPeer(fmt.Sprintf("w%d", i))
	}
	sys.SetAggHosts(func(name string) bool { return name[0] == 'w' })
	merge := &algebra.Node{
		Op: algebra.OpUnion, Peer: "mgr", Schema: []string{"e"},
		Inputs: []*algebra.Node{mkGroup(0, 5), mkGroup(5, 10)},
	}
	plan := &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{merge},
		Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: "twotrees"},
	}
	task, err := mgr.DeployPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	defer task.Stop()
	interiors := aggtree.Interiors(task.Plan)
	if len(interiors) < 4 {
		t.Fatalf("expected interiors from both trees, got %d", len(interiors))
	}
	desired := sys.AggPlacements(task.Plan)
	for _, n := range interiors {
		if desired[n.AggKey] != n.Peer {
			t.Errorf("interior %s deployed at %s, re-derivation says %s — placement not re-derivable",
				n.AggKey, n.Peer, desired[n.AggKey])
		}
	}
}

// TestAggTreeInteriorCrashExactlyOnce: an interior merge host crashes
// mid-window; the supervisor machinery migrates it (DHT-re-derived
// placement), checkpoint restore plus input replay re-merge the in-
// flight partial windows, and the final records still match the flat
// no-churn baseline byte for byte.
func TestAggTreeInteriorCrashExactlyOnce(t *testing.T) {
	const sources, workers, events = 6, 3, 48
	flatSys, flatTask := aggWorld(t, DefaultConfig(), sources, workers)
	driveAgg(t, flatSys, sources, events, time.Second)
	want := groupRecords(t, flatTask)

	opts := DefaultConfig()
	opts.Agg.Degree = 3
	opts.Replay.Buffer = 4096
	opts.Replay.CheckpointInterval = 2 * time.Second
	sys, task := aggWorld(t, opts, sources, workers)
	client := sys.Peer("client")
	// Crash mid-window (27s into 10s windows) and repair only three
	// events later — the detection-latency gap during which the live
	// leaves keep publishing partials the dead interior never receives.
	// Those in-flight partials must come back through the replay path.
	const crashAt, repairAt = 27, 30
	victim := ""
	for i := 0; i < events; i++ {
		target := fmt.Sprintf("s%d", i%sources)
		if _, err := client.Endpoint().Invoke(target, "Q", nil); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		sys.Quiesce()
		sys.Step(time.Second)
		switch i {
		case crashAt:
			victim = aggtree.Interiors(task.Plan)[0].Peer
			sys.Net.Crash(victim) //nolint:errcheck // known node
		case repairAt:
			evs := sys.FailPeer(victim, sys.Net.Clock().Now())
			repaired := 0
			for _, ev := range evs {
				if ev.Repaired() {
					repaired++
				}
			}
			if repaired == 0 {
				t.Fatalf("no repairs after crashing interior host %s (%v)", victim, evs)
			}
			for _, n := range aggtree.Interiors(task.Plan) {
				if n.Peer == victim {
					t.Errorf("interior %s still placed on the dead %s", n.Label(), victim)
				}
			}
		}
	}
	// Drain the replay/anti-entropy machinery before closing.
	for i := 0; i < 8; i++ {
		sys.Step(time.Second)
	}
	got := groupRecords(t, task)
	if !equalRecords(got, want) {
		t.Errorf("post-crash records differ from flat baseline:\n got: %v\nwant: %v", got, want)
	}
	if sys.ReplayedItems() == 0 {
		t.Error("no items were replayed; the crash repair did not exercise the replay path")
	}
}

// TestAggTreeRebalanceOnJoin: peers joining at runtime shift ring
// ownership; interiors re-parent onto the new DHT owners and the
// windowed counts stay byte-identical to the flat baseline.
func TestAggTreeRebalanceOnJoin(t *testing.T) {
	const sources, workers, events = 6, 2, 48
	flatSys, flatTask := aggWorld(t, DefaultConfig(), sources, workers)
	driveAgg(t, flatSys, sources, events, time.Second)
	want := groupRecords(t, flatTask)

	opts := DefaultConfig()
	opts.Agg.Degree = 3
	opts.Replay.Buffer = 4096
	opts.Replay.CheckpointInterval = 2 * time.Second
	sys, task := aggWorld(t, opts, sources, workers)
	client := sys.Peer("client")
	joined := 0
	for i := 0; i < events; i++ {
		target := fmt.Sprintf("s%d", i%sources)
		if _, err := client.Endpoint().Invoke(target, "Q", nil); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		sys.Quiesce()
		sys.Step(time.Second)
		if i == 15 || i == 31 { // join mid-run, mid-window
			name := fmt.Sprintf("w%d", workers+joined)
			joined++
			if _, err := sys.JoinPeer(name, "mgr"); err != nil {
				t.Fatalf("joining %s: %v", name, err)
			}
		}
	}
	if joined == 0 {
		t.Fatal("no joins executed")
	}
	// After the joins, every interior must sit where the current ring's
	// bounded placement routes its key — the membership-tracking
	// invariant RebalanceAggTrees restores.
	desired := sys.AggPlacements(task.Plan)
	for _, n := range aggtree.Interiors(task.Plan) {
		if desired[n.AggKey] != n.Peer {
			t.Errorf("interior %s at %s, bounded placement says %s", n.Label(), n.Peer, desired[n.AggKey])
		}
	}
	for i := 0; i < 8; i++ {
		sys.Step(time.Second)
	}
	got := groupRecords(t, task)
	if !equalRecords(got, want) {
		t.Errorf("post-join records differ from flat baseline:\n got: %v\nwant: %v", got, want)
	}
}

// TestAggTreeRebalanceOnRejoin: a recovered host re-enters the ring, so
// ring ownership shifts back — RejoinPeer must re-place interiors just
// like joins and leaves do, or the deployed tree drifts from the
// DHT-derived placement until the next unrelated membership change
// (the drift bug this is a regression test for).
func TestAggTreeRebalanceOnRejoin(t *testing.T) {
	const sources, workers, events = 6, 3, 48
	flatSys, flatTask := aggWorld(t, DefaultConfig(), sources, workers)
	driveAgg(t, flatSys, sources, events, time.Second)
	want := groupRecords(t, flatTask)

	opts := DefaultConfig()
	opts.Agg.Degree = 3
	opts.Replay.Buffer = 4096
	opts.Replay.CheckpointInterval = 2 * time.Second
	sys, task := aggWorld(t, opts, sources, workers)
	client := sys.Peer("client")
	const crashAt, repairAt, rejoinAt = 17, 20, 33
	victim := ""
	for i := 0; i < events; i++ {
		target := fmt.Sprintf("s%d", i%sources)
		if _, err := client.Endpoint().Invoke(target, "Q", nil); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		sys.Quiesce()
		sys.Step(time.Second)
		switch i {
		case crashAt:
			victim = aggtree.Interiors(task.Plan)[0].Peer
			sys.Net.Crash(victim) //nolint:errcheck // known node
		case repairAt:
			sys.FailPeer(victim, sys.Net.Clock().Now())
			assertEdges(t, sys)
		case rejoinAt:
			sys.Net.Recover(victim) //nolint:errcheck // known node
			sys.RejoinPeer(victim)
			assertEdges(t, sys)
			// The recovered host owns part of the keyspace again; the
			// deployed interiors must follow immediately.
			desired := sys.AggPlacements(task.Plan)
			for _, n := range aggtree.Interiors(task.Plan) {
				if desired[n.AggKey] != n.Peer {
					t.Errorf("after rejoin, interior %s at %s, bounded placement says %s",
						n.Label(), n.Peer, desired[n.AggKey])
				}
			}
		}
	}
	for i := 0; i < 8; i++ {
		sys.Step(time.Second)
	}
	got := groupRecords(t, task)
	if !equalRecords(got, want) {
		t.Errorf("post-rejoin records differ from flat baseline:\n got: %v\nwant: %v", got, want)
	}
}
