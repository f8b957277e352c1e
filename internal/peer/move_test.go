package peer

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"p2pm/internal/aggtree"
	"p2pm/internal/algebra"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// TestRebalanceFailedMoveStrandsNobody: a planned move that cannot
// complete (here: the task's edge list lost a record) must be
// refused before anything is touched — no consumer re-bound to a channel
// that will never have a producer, no channel allocated — so the tree
// keeps delivering from where it is and the next rebalance retries.
func TestRebalanceFailedMoveStrandsNobody(t *testing.T) {
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
	drive := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := client.Endpoint().Invoke(fmt.Sprintf("s%d", i%sources), "Q", nil); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
			sys.Quiesce()
			sys.Step(time.Second)
		}
	}
	drive(0, 20)

	// A new worker takes ring ownership (AddPeer, not JoinPeer: no
	// automatic rebalance), so some interiors now belong elsewhere.
	sys.MustAddPeer(fmt.Sprintf("w%d", workers))
	movers := map[*algebra.Node]bool{}
	desired := sys.AggPlacements(task.Plan)
	for _, n := range aggtree.Interiors(task.Plan) {
		if desired[n.AggKey] != n.Peer {
			movers[n] = true
		}
	}
	if len(movers) == 0 {
		t.Fatal("the new worker moved no interior's placement; the scenario lost its teeth")
	}
	// Corrupt the bookkeeping: every interior that wants to move loses
	// one input edge record (the subscription itself keeps running).
	intact := append([]*edge(nil), task.edges...)
	task.edges = nil
	dropped := map[*algebra.Node]bool{}
	for _, e := range intact {
		if movers[e.consumer] && !dropped[e.consumer] {
			dropped[e.consumer] = true
			continue
		}
		task.edges = append(task.edges, e)
	}
	srcs := map[*edge]*stream.Channel{}
	for _, e := range intact {
		srcs[e] = e.src
	}
	hosts := map[*algebra.Node]string{}
	for n := range movers {
		hosts[n] = n.Peer
	}
	channels := len(task.channels)

	if evs := sys.RebalanceAggTrees(sys.Net.Clock().Now()); len(evs) != 0 {
		t.Fatalf("moves reported despite out-of-sync edges: %+v", evs)
	}
	for e, src := range srcs {
		if e.src != src {
			t.Errorf("an edge on %s was re-bound by a move that failed", src.Ref())
		}
	}
	if got := len(task.channels); got != channels {
		t.Errorf("a failed move allocated %d channel(s)", got-channels)
	}
	for n, host := range hosts {
		if n.Peer != host {
			t.Errorf("interior %s moved %s → %s", n.Label(), host, n.Peer)
		}
	}
	assertEdges(t, sys)
	drive(20, 32) // results keep flowing through the un-moved tree

	// With the bookkeeping repaired the next rebalance lands the moves.
	task.edges = intact
	if evs := sys.RebalanceAggTrees(sys.Net.Clock().Now()); len(evs) == 0 {
		t.Error("the retry moved nothing")
	}
	assertEdges(t, sys)
	desired = sys.AggPlacements(task.Plan)
	for _, n := range aggtree.Interiors(task.Plan) {
		if desired[n.AggKey] != n.Peer {
			t.Errorf("interior %s at %s, bounded placement says %s", n.Label(), n.Peer, desired[n.AggKey])
		}
	}
	drive(32, events)
	for i := 0; i < 8; i++ {
		sys.Step(time.Second)
	}
	if got := groupRecords(t, task); !equalRecords(got, want) {
		t.Errorf("records differ from flat baseline:\n got: %v\nwant: %v", got, want)
	}
}

// sharedWorld deploys two subscriptions through the reuse pass: wide
// counts calls per callee over all eight sources (a degree-4 tree: two
// first-level interiors under a Final root), narrow over the first four
// — exactly one interior's leaves, so narrow grafts onto that interior
// instead of deploying its own. It returns both tasks and the shared
// interior's routing key.
func sharedWorld(t *testing.T) (*System, *Task, *Task, string) {
	t.Helper()
	const sources, workers = 8, 4
	sys := MustSystem(splitConfig(4))
	mgr := sys.MustAddPeer("mgr")
	sys.MustAddPeer("client")
	for _, busy := range []string{"mgr", "client"} {
		sys.Net.AddLoad(busy, 1000)
	}
	for i := 0; i < sources; i++ {
		sp := sys.MustAddPeer(fmt.Sprintf("s%d", i))
		sp.Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
			return xmltree.Elem("ok"), nil
		}, nil)
		sys.Net.AddLoad(sp.Name(), 1000)
	}
	for i := 0; i < workers; i++ {
		sys.MustAddPeer(fmt.Sprintf("w%d", i))
	}
	sys.SetAggHosts(func(name string) bool { return name[0] == 'w' })
	wide, err := mgr.DeployPlanShared(countPlan(sources, "wide"))
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := mgr.DeployPlanShared(countPlan(sources/2, "narrow"))
	if err != nil {
		t.Fatal(err)
	}
	key := ""
	narrow.Plan.Walk(func(in *algebra.Node) {
		if in.Op != algebra.OpChannelIn {
			return
		}
		for n, ref := range wide.refs {
			if ref == in.Channel && n.AggKey != "" {
				key = n.AggKey
			}
		}
	})
	if key == "" {
		t.Fatalf("narrow did not graft onto an interior of wide:\n%s", narrow.Plan.Tree())
	}
	return sys, wide, narrow, key
}

// TestSharedInteriorMoves drives an interior that feeds two tasks
// through every kind of move — crash repair, graceful leave, join
// rebalance, split — one at a time and then all in turn. After each move
// no binding of either task may be left on a stale channel, and both
// sinks must end byte-identical to the undisturbed run.
func TestSharedInteriorMoves(t *testing.T) {
	const sources, events = 8, 64
	type world struct {
		sys          *System
		wide, narrow *Task
		key          string
	}
	interior := func(w *world) *algebra.Node {
		for _, n := range aggtree.Interiors(w.wide.Plan) {
			if n.AggKey == w.key {
				return n
			}
		}
		t.Fatalf("shared interior %s vanished from the plan", w.key)
		return nil
	}
	moves := map[string]func(*world){
		"crash": func(w *world) {
			victim := interior(w).Peer
			sys := w.sys
			sys.Net.Crash(victim) //nolint:errcheck // known node
			sys.FailPeer(victim, sys.Net.Clock().Now())
			if got := interior(w).Peer; got == victim {
				t.Errorf("shared interior still on the dead %s", victim)
			}
		},
		"leave": func(w *world) {
			host := interior(w).Peer
			if _, err := w.sys.LeavePeer(host); err != nil {
				t.Fatalf("leave %s: %v", host, err)
			}
			if got := interior(w).Peer; got == host {
				t.Errorf("shared interior still on the departed %s", host)
			}
		},
		"join": func(w *world) {
			name := fmt.Sprintf("w%d", len(w.sys.Peers()))
			if _, err := w.sys.JoinPeer(name, "mgr"); err != nil {
				t.Fatalf("join %s: %v", name, err)
			}
		},
		"split": func(w *world) {
			if _, err := w.sys.SplitInterior(w.wide, w.key); err != nil {
				t.Fatalf("split: %v", err)
			}
		},
	}
	// run drives the schedule, applying the named moves at evenly spaced
	// events, and returns both sinks' records.
	run := func(t *testing.T, names ...string) (wide, narrow []string) {
		sys, wt, nt, key := sharedWorld(t)
		w := &world{sys: sys, wide: wt, narrow: nt, key: key}
		client := sys.Peer("client")
		for i := 0; i < events; i++ {
			if _, err := client.Endpoint().Invoke(fmt.Sprintf("s%d", i%sources), "Q", nil); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
			sys.Quiesce()
			sys.Step(time.Second)
			for k, name := range names {
				if i == (k+1)*events/(len(names)+1) {
					moves[name](w)
					assertEdges(t, sys)
				}
			}
		}
		for i := 0; i < 8; i++ {
			sys.Step(time.Second)
		}
		// wide feeds narrow: stopping it first flushes narrow's trailing
		// window through the shared interior's EOS.
		wide = groupRecords(t, wt)
		sys.Quiesce()
		return wide, groupRecords(t, nt)
	}
	wantWide, wantNarrow := run(t)
	if len(wantWide) == 0 || len(wantNarrow) == 0 {
		t.Fatalf("undisturbed run produced %d / %d records", len(wantWide), len(wantNarrow))
	}
	for _, c := range [][]string{
		{"crash"}, {"leave"}, {"join"}, {"split"},
		{"crash", "leave", "join", "split"},
	} {
		t.Run(strings.Join(c, "+"), func(t *testing.T) {
			gotWide, gotNarrow := run(t, c...)
			if !equalRecords(gotWide, wantWide) {
				t.Errorf("wide sink differs from the undisturbed run:\n got: %v\nwant: %v", gotWide, wantWide)
			}
			if !equalRecords(gotNarrow, wantNarrow) {
				t.Errorf("narrow sink differs from the undisturbed run:\n got: %v\nwant: %v", gotNarrow, wantNarrow)
			}
		})
	}
}
