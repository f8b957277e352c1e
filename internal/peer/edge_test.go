package peer

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/p2pml"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// assertEdges checks the consumer-edge invariant for every kind of edge
// at once — operator input, result reader, BY subscribe target, replica
// forwarder:
//
//   - every indexed edge sits under its source's ref and holds a live
//     subscription of its own or a place on a link; each subscription
//     and each link is one of that channel's subscribers;
//   - a link is the one subscription of its channel and consumer peer,
//     holds at least one edge and every edge on it names it;
//   - no task's edge reads a channel that lost its producer, and every
//     ChannelIn of a live manager's task names a usable channel;
//   - every attached edge of a running task is indexed;
//   - no edge of a stopped task is indexed or attached, and every queue
//     it fed is closed.
func assertEdges(t *testing.T, sys *System, stopped ...*Task) {
	t.Helper()
	gone := make(map[*Task]bool)
	for _, task := range stopped {
		gone[task] = true
	}
	sys.mu.Lock()
	indexed := make(map[*edge]bool)
	for ref, es := range sys.edges {
		if len(es) == 0 {
			t.Errorf("index keeps an empty entry for %s", ref)
		}
		names := sys.channels[ref].Subscribers()
		counted := make(map[*link]bool)
		for _, e := range es {
			indexed[e] = true
			switch {
			case e.src == nil || e.src.Ref() != ref:
				t.Errorf("edge %d indexed under %s but reads %v", e.id, ref, e.src)
			case e.sub == nil && e.link == nil:
				t.Errorf("edge %d indexed under %s holds no subscription", e.id, ref)
			case e.task != nil && gone[e.task]:
				t.Errorf("%s: edge %d still indexed under %s after Stop", e.task.ID, e.id, ref)
			}
			if e.link != nil {
				if counted[e.link] {
					continue
				}
				counted[e.link] = true
			}
			if i := sort.SearchStrings(names, e.peer); i < len(names) && names[i] == e.peer {
				names = append(names[:i:i], names[i+1:]...)
			} else {
				t.Errorf("edge %d indexed under %s, but %s is not subscribed there", e.id, ref, e.peer)
			}
		}
	}
	var peers []*Peer
	for _, p := range sys.peers {
		peers = append(peers, p)
	}
	sys.mu.Unlock()
	assertLinks(t, sys)

	for _, p := range peers {
		for _, task := range p.Tasks() {
			for _, e := range task.edges {
				sys.mu.Lock()
				attached, src := e.sub != nil || e.link != nil, e.src
				sys.mu.Unlock()
				switch {
				case gone[task]:
					if attached || indexed[e] {
						t.Errorf("%s: edge %d outlived Stop (attached %v, indexed %v)", task.ID, e.id, attached, indexed[e])
					}
					if !e.queue.Closed() {
						t.Errorf("%s: a queue fed from %s is still open after Stop", task.ID, src.Ref())
					}
				case attached && !indexed[e]:
					t.Errorf("%s: edge %d attached to %s but not indexed", task.ID, e.id, src.Ref())
				case sys.isStale(src.Ref()) && sys.Net.Alive(task.Manager):
					t.Errorf("%s: edge %d still reads stale channel %s", task.ID, e.id, src.Ref())
				}
			}
			if gone[task] || !sys.Net.Alive(task.Manager) {
				continue
			}
			task.Plan.Walk(func(n *algebra.Node) {
				if n.Op == algebra.OpChannelIn && !sys.usable(n.Channel) {
					t.Errorf("%s: ChannelIn %s is not usable", task.ID, n.Channel)
				}
			})
		}
	}
}

// assertLinks checks the links on their own: each is filed under its
// channel and consumer peer, not empty, and each of its edges is attached
// through it to that channel, at most once.
func assertLinks(t *testing.T, sys *System) {
	t.Helper()
	sys.linkMu.Lock()
	defer sys.linkMu.Unlock()
	sys.mu.Lock()
	defer sys.mu.Unlock()
	for key, l := range sys.links {
		ends := *l.ends.Load()
		switch {
		case l.ch != key.ch || l.to != key.to:
			t.Errorf("link %s→%s filed under %s→%s", l.ch.Ref(), l.to, key.ch.Ref(), key.to)
		case len(ends) == 0:
			t.Errorf("link %s→%s has no edge left", l.ch.Ref(), l.to)
		}
		seen := make(map[*edge]bool)
		for _, d := range ends {
			e := d.e
			switch {
			case seen[e]:
				t.Errorf("edge %d twice on link %s→%s", e.id, l.ch.Ref(), l.to)
			case e.link != l || e.src != l.ch || e.peer != l.to:
				t.Errorf("edge %d on link %s→%s is attached elsewhere", e.id, l.ch.Ref(), l.to)
			}
			seen[e] = true
		}
	}
}

// kindsWorld is a deployment with one edge of every kind: src's hand-fed
// channel → relay (Union) at w1 → publisher at pub with a BY subscribe
// target at far, managed from mgr; w3 announces a replica of the relay's
// stream, and a second task at far reads that replica. The source edge
// of each reader crosses a link of its own.
type kindsWorld struct {
	sys     *System
	srcCh   *stream.Channel
	task    *Task // src → relay@w1 → out@pub, BY subscribe far#inbox
	mirror  *Task // replica of the relay's stream @w3 → mirror@far
	inbox   *stream.Queue
	relay   stream.Ref
	replica stream.Ref
	next    int
}

func newKindsWorld(t *testing.T, cfg Config) *kindsWorld {
	t.Helper()
	sys := MustSystem(cfg)
	for _, name := range []string{"src", "mgr", "pub", "far", "w1", "w2", "w3", "w4"} {
		sys.MustAddPeer(name)
	}
	for _, busy := range []string{"src", "mgr", "far", "w3", "w4"} {
		sys.Net.AddLoad(busy, 100)
	}
	w := &kindsWorld{sys: sys, srcCh: stream.NewChannel("src", "ev")}
	sys.registerChannel(w.srcCh)
	chin := &algebra.Node{Op: algebra.OpChannelIn, Peer: "src", Channel: w.srcCh.Ref(), Schema: []string{"e"}}
	relay := &algebra.Node{Op: algebra.OpUnion, Peer: "w1", Inputs: []*algebra.Node{chin}, Schema: []string{"e"}}
	var err error
	w.task, err = sys.Peer("mgr").DeployPlan(&algebra.Node{
		Op: algebra.OpPublish, Peer: "pub", Inputs: []*algebra.Node{relay}, Schema: []string{"e"},
		Publish: &algebra.PublishSpec{ChannelID: "out", Targets: []p2pml.ByTarget{
			{Kind: p2pml.BySubscribe, Peer: "far", ChannelID: "inbox"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.inbox = sys.Peer("far").Incoming("inbox")
	for n, ref := range w.task.StreamRefs() {
		if n.Op == algebra.OpUnion {
			w.relay = ref
		}
	}
	if w.replica, err = sys.AnnounceReplica(w.relay, "w3"); err != nil {
		t.Fatal(err)
	}
	w.mirror, err = sys.Peer("far").DeployPlan(&algebra.Node{
		Op: algebra.OpPublish, Peer: "far", Schema: []string{"e"},
		Publish: &algebra.PublishSpec{ChannelID: "mirror"},
		Inputs: []*algebra.Node{{
			Op: algebra.OpChannelIn, Peer: "w3", Schema: []string{"e"},
			Channel: w.replica, Origin: w.relay,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// emit publishes the next uniquely-identified event into the source.
func (w *kindsWorld) emit() {
	w.next++
	tree := xmltree.Elem("e")
	tree.SetAttr("id", fmt.Sprintf("%d", w.next))
	w.srcCh.Publish(stream.Item{Tree: tree, Time: w.sys.Net.Clock().Now()})
}

// TestEdgeStopClosesEverything: Stop returns only once every consumer the
// task fed has been shut — a BY subscribe target's Incoming queue
// included, which an un-awaited pump goroutine used to close some time
// later — and no goroutine of the task is left running. Replay off and
// on: the target edge has no cursor in the first, one in the second.
func TestEdgeStopClosesEverything(t *testing.T) {
	for name, cfg := range map[string]Config{"replay off": DefaultConfig(), "replay on": replayOptions()} {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			w := newKindsWorld(t, cfg)
			const events = 10
			for i := 0; i < events; i++ {
				w.emit()
			}
			waitResults(t, w.sys, w.task, events)
			w.task.Stop()
			if !w.inbox.Closed() {
				t.Error("the BY subscribe target's Incoming queue is still open when Stop returns")
			}
			if !w.task.Results().Closed() {
				t.Error("Results() is still open when Stop returns")
			}
			if got := len(w.inbox.Drain()); got != events {
				t.Errorf("the target received %d of %d events", got, events)
			}
			w.mirror.Stop()
			assertEdges(t, w.sys, w.task, w.mirror)
			// A goroutine that has signalled its exit may still be counted
			// for an instant; one that was never told to stop stays.
			pollFor(t, func() bool { return runtime.NumGoroutine() <= before })
		})
	}
}

// TestEdgeIndexHoldsLiveEdgesOnly: the index is bounded by what runs. It
// follows edges through deploy, a producer move with an adopted replica,
// and teardown, and is empty once every task has stopped and every
// replica has closed — a severed or closed forwarder is not kept around
// to be re-walked by every sweep.
func TestEdgeIndexHoldsLiveEdgesOnly(t *testing.T) {
	w := newKindsWorld(t, replayOptions())
	sys := w.sys
	// One more replica, which the move below does not adopt: both
	// forwarders are severed and leave the index, and the spare is stale.
	spare, err := sys.AnnounceReplica(w.relay, "w4")
	if err != nil {
		t.Fatal(err)
	}
	count := func() int {
		sys.mu.Lock()
		defer sys.mu.Unlock()
		n := 0
		for _, es := range sys.edges {
			n += len(es)
		}
		return n
	}
	// relay ← src, publisher ← relay, target, results; mirror's input and
	// results; two forwarders.
	if got := count(); got != 8 {
		t.Fatalf("%d edges indexed after deployment, want 8", got)
	}
	assertEdges(t, sys)
	for i := 0; i < 5; i++ {
		w.emit()
		sys.Step(time.Second)
	}
	waitResults(t, w.sys, w.task, 5)
	waitResults(t, w.sys, w.mirror, 5)

	sys.Net.Crash("w1") //nolint:errcheck // known node
	events := sys.FailPeer("w1", sys.Net.Clock().Now())
	if len(events) != 1 || !events[0].ViaReplica || events[0].To != "w3" {
		t.Fatalf("failover = %+v, want the relay adopting the first-announced replica at w3", events)
	}
	if got := count(); got != 6 {
		t.Errorf("%d edges indexed after the move, want 6 (both forwarders severed)", got)
	}
	if sys.isStale(w.replica) || !sys.isStale(spare) {
		t.Errorf("stale(adopted) = %v, stale(spare) = %v; want false, true", sys.isStale(w.replica), sys.isStale(spare))
	}
	assertEdges(t, sys)
	for i := 5; i < 10; i++ {
		w.emit()
		sys.Step(time.Second)
	}
	waitResults(t, w.sys, w.task, 10)
	waitResults(t, w.sys, w.mirror, 10)

	// A fresh forwarder on the adopted channel ends with it: nobody closes
	// a replica edge, end-of-stream does.
	if _, err := sys.AnnounceReplica(w.replica, "w2"); err != nil {
		t.Fatal(err)
	}
	w.task.Stop()
	w.mirror.Stop()
	assertEdges(t, sys, w.task, w.mirror)
	if got := count(); got != 0 {
		sys.mu.Lock()
		defer sys.mu.Unlock()
		t.Errorf("%d edges indexed after every task stopped and every replica closed: %v", got, sys.edges)
	}
	assertExactlyOnce(t, w.task, 10)
	assertExactlyOnce(t, w.mirror, 10)
}

// TestSweepReadsEveryEdgeBeforeSending: the sweep's re-send into an
// operator wakes its loop, which publishes into channels that edges swept
// later in the same pass read. Two chained tasks — src → relay@w1 →
// out1@p1, managed from m1, and out1@p1 → relay@w2 → out2@p2, managed
// from m2 — lose events on src→w1 to a partition; after the heal, the
// first sweep re-sends them into the w1 relay while the edge into w2,
// swept later, reads out1. Were that edge read after the re-send, an
// item still mid-publish at p1 would be re-sent too, and ReplayedItems
// would depend on the schedule. It must be the same after every Step of
// every run.
func TestSweepReadsEveryEdgeBeforeSending(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const events, lost = 40, 30
	relay := func(peer string, in *algebra.Node, pub, id string) *algebra.Node {
		return &algebra.Node{
			Op: algebra.OpPublish, Peer: pub, Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: id},
			Inputs: []*algebra.Node{{Op: algebra.OpUnion, Peer: peer, Inputs: []*algebra.Node{in}, Schema: []string{"e"}}},
		}
	}
	run := func() []uint64 {
		sys := MustSystem(replayOptions())
		for _, name := range []string{"src", "m1", "m2", "w1", "w2", "p1", "p2"} {
			sys.MustAddPeer(name)
		}
		srcCh := stream.NewChannel("src", "ev")
		sys.registerChannel(srcCh)
		chin := &algebra.Node{Op: algebra.OpChannelIn, Peer: "src", Channel: srcCh.Ref(), Schema: []string{"e"}}
		first, err := sys.Peer("m1").DeployPlan(relay("w1", chin, "p1", "out1"))
		if err != nil {
			t.Fatal(err)
		}
		out1 := &algebra.Node{Op: algebra.OpChannelIn, Peer: "p1", Channel: first.ResultChannel(), Schema: []string{"e"}}
		second, err := sys.Peer("m2").DeployPlan(relay("w2", out1, "p2", "out2"))
		if err != nil {
			t.Fatal(err)
		}
		var replayed []uint64
		for i := 1; i <= events; i++ {
			switch i {
			case 5:
				sys.Net.Partition([]string{"src"}, []string{"w1"})
			case 5 + lost:
				sys.Net.Heal()
			}
			tree := xmltree.Elem("e")
			tree.SetAttr("id", fmt.Sprintf("%d", i))
			srcCh.Publish(stream.Item{Tree: tree, Time: sys.Net.Clock().Now()})
			if i < 5 || i >= 5+lost {
				sys.Step(time.Second)
				replayed = append(replayed, sys.ReplayedItems())
			}
		}
		stepUntil(sys, func() bool { return second.Results().Len() >= events })
		first.Stop()
		second.Stop()
		assertExactlyOnce(t, second, events)
		return replayed
	}
	want := run()
	if got := want[len(want)-1]; got != lost {
		t.Fatalf("ReplayedItems = %d, want the %d events lost to the partition", got, lost)
	}
	for i := 1; i < 200 && !t.Failed(); i++ {
		if got := run(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d: ReplayedItems after each Step = %v, first run %v", i, got, want)
		}
	}
}
