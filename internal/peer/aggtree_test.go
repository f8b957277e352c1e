package peer

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"p2pm/internal/aggtree"
	"p2pm/internal/algebra"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// aggWorld assembles an aggregation deployment: sources s0..sS-1 each
// host a monitored service and a ws-in alerter, workers w0..wW-1 are the
// merge-host pool (the aggHosts filter keeps DHT-routed interiors on
// them), the flat plan Group(Union(alerters)) sits at w0 and publishes
// at mgr. With opts.Agg.Degree set, deployment decomposes it into a tree.
func aggWorld(t *testing.T, opts Config, sources, workers int) (*System, *Task) {
	t.Helper()
	sys := aggPeers(opts, sources, workers)
	task, err := sys.Peer("mgr").DeployPlan(countPlan(sources, "agg"))
	if err != nil {
		t.Fatal(err)
	}
	return sys, task
}

// aggPeers is aggWorld's cluster with nothing deployed.
func aggPeers(opts Config, sources, workers int) *System {
	sys := MustSystem(opts)
	sys.MustAddPeer("mgr")
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
	return sys
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

// TestP2PMLGroupBuildsAndSharesTree: a P2PML `return $e group …` over
// more sources than Agg.Degree deploys as an aggregation tree, a
// DeployPlanShared group plan over the same sources reuses all of it, a
// P2PML group over a subset grafts onto its partials, and every
// subscription's records are byte-identical to the same subscriptions on
// a flat system — the distinct form, γ(δ(∪)), included.
func TestP2PMLGroupBuildsAndSharesTree(t *testing.T) {
	const sources, workers, events = 6, 3, 48
	group := func(lo, hi int, distinct, channel string) string {
		var b strings.Builder
		for i := lo; i < hi; i++ {
			fmt.Fprintf(&b, "<p>s%d</p>", i)
		}
		return fmt.Sprintf(`for $e in inCOM(%s) return %s$e group on "callee" window "10s" by channel %s`,
			b.String(), distinct, channel)
	}
	run := func(t *testing.T, degree int) [][]string {
		opts := DefaultConfig()
		opts.Agg.Degree = degree
		sys := aggPeers(opts, sources, workers)
		mgr := sys.Peer("mgr")
		wide, err := mgr.Subscribe(group(0, sources, "", "wide"))
		if err != nil {
			t.Fatal(err)
		}
		shared, err := mgr.DeployPlanShared(countPlan(sources, "shared"))
		if err != nil {
			t.Fatal(err)
		}
		narrow, err := mgr.Subscribe(group(1, 5, "", "narrow"))
		if err != nil {
			t.Fatal(err)
		}
		distinct, err := mgr.Subscribe(group(0, sources, "distinct ", "distinct"))
		if err != nil {
			t.Fatal(err)
		}
		if degree > 1 {
			leaves := 0
			wide.Plan.Walk(func(n *algebra.Node) {
				if n.Op == algebra.OpPartialAgg {
					leaves++
				}
			})
			if interiors := len(aggtree.Interiors(wide.Plan)); leaves != sources || interiors != 2 {
				t.Fatalf("P2PML group: %d γp leaves and %d γm interiors, want %d and 2:\n%s",
					leaves, interiors, sources, wide.Plan.Tree())
			}
			if shared.Reuse.NewOps != 0 {
				t.Errorf("DeployPlanShared over the same sources deployed %d new operators, want 0:\n%s",
					shared.Reuse.NewOps, shared.Plan.Tree())
			}
			partials := map[stream.Ref]bool{}
			for n, ref := range wide.refs {
				if n.Op == algebra.OpPartialAgg || n.Op == algebra.OpMergeAgg && !n.Group.Final {
					partials[ref] = true
				}
			}
			grafted := 0
			narrow.Plan.Walk(func(n *algebra.Node) {
				switch {
				case n.Op == algebra.OpAlerter:
					t.Errorf("narrow deployed its own %s instead of grafting", n.Label())
				case n.Op == algebra.OpChannelIn && partials[n.Channel]:
					grafted++
				}
			})
			if grafted == 0 {
				t.Errorf("narrow grafted onto none of wide's partials:\n%s", narrow.Plan.Tree())
			}
		}
		driveAgg(t, sys, sources, events, time.Second)
		for i := 0; i < 8; i++ {
			sys.Step(time.Second)
		}
		// wide feeds shared and narrow: stopping it first flushes their
		// trailing windows through the shared streams' EOS.
		var out [][]string
		for _, task := range []*Task{wide, shared, narrow, distinct} {
			out = append(out, groupRecords(t, task))
			sys.Quiesce()
		}
		return out
	}
	want := run(t, 0)
	got := run(t, 3)
	for i, name := range []string{"wide", "shared", "narrow", "distinct"} {
		if len(want[i]) == 0 {
			t.Errorf("%s: flat run produced no records", name)
		}
		if !equalRecords(got[i], want[i]) {
			t.Errorf("%s: tree records differ from flat:\n tree: %v\n flat: %v", name, got[i], want[i])
		}
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
