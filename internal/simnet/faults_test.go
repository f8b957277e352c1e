package simnet

import (
	"testing"
	"time"

	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

func item() stream.Item { return stream.Item{Tree: xmltree.ElemText("x", "payload")} }

func TestCrashRecoverSemantics(t *testing.T) {
	nw := New(Options{Seed: 1})
	nw.AddNode("a")
	nw.AddNode("b")

	if !nw.Alive("a") || !nw.Alive("never-registered") {
		t.Fatal("nodes should default to alive")
	}
	if err := nw.Crash("ghost"); err == nil {
		t.Error("crashing an unknown node should fail")
	}
	if err := nw.Crash("b"); err != nil {
		t.Fatal(err)
	}
	if nw.Alive("b") {
		t.Error("b should be down")
	}
	if nw.Reachable("a", "b") || nw.Reachable("b", "a") {
		t.Error("links to a crashed node should be unreachable")
	}
	if !nw.Reachable("b", "b") {
		t.Error("local delivery is always reachable")
	}

	if _, ok := nw.Deliver("a", "b", item()); ok {
		t.Error("delivery to a crashed node should be dropped")
	}
	if got := nw.Link("a", "b").Dropped; got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	if got := nw.Link("a", "b").Messages; got != 0 {
		t.Errorf("messages = %d, want 0", got)
	}

	if err := nw.Recover("b"); err != nil {
		t.Fatal(err)
	}
	if _, ok := nw.Deliver("a", "b", item()); !ok {
		t.Error("delivery after recovery should succeed")
	}
	if got := nw.Link("a", "b").Messages; got != 1 {
		t.Errorf("messages after recovery = %d, want 1", got)
	}
	if got := nw.Totals(); got.Dropped != 1 || got.Messages != 1 {
		t.Errorf("totals = %+v", got)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	nw := New(Options{Seed: 1})
	for _, n := range []string{"a1", "a2", "b1", "b2", "free"} {
		nw.AddNode(n)
	}
	nw.Partition([]string{"a1", "a2"}, []string{"b1", "b2"})

	if !nw.Partitioned("a1", "b1") || !nw.Partitioned("b2", "a2") {
		t.Error("cross-group pairs should be partitioned")
	}
	if nw.Partitioned("a1", "a2") || nw.Partitioned("b1", "b2") {
		t.Error("same-group pairs should not be partitioned")
	}
	if nw.Partitioned("a1", "free") || nw.Partitioned("free", "b1") {
		t.Error("unassigned nodes should reach both sides")
	}
	if nw.Reachable("a1", "b1") {
		t.Error("a1→b1 should be unreachable during the partition")
	}
	if !nw.Reachable("a1", "a2") || !nw.Reachable("free", "b2") {
		t.Error("intra-group and free links should stay up")
	}
	if _, ok := nw.Deliver("a1", "b1", item()); ok {
		t.Error("cross-partition delivery should drop")
	}

	// A new Partition call replaces the previous grouping.
	nw.Partition([]string{"a1"}, []string{"a2"})
	if !nw.Partitioned("a1", "a2") || nw.Partitioned("a1", "b1") {
		t.Error("repartition did not replace the old groups")
	}

	nw.Heal()
	if nw.Partitioned("a1", "a2") || !nw.Reachable("a1", "b1") {
		t.Error("heal should restore full connectivity")
	}
	if _, ok := nw.Deliver("a1", "b1", item()); !ok {
		t.Error("delivery after heal should succeed")
	}
}

func TestDropInjection(t *testing.T) {
	nw := New(Options{Seed: 42})
	nw.AddNode("a")
	nw.AddNode("b")
	nw.SetDrop("a", "b", 0.5)
	delivered, dropped := 0, 0
	for i := 0; i < 200; i++ {
		if _, ok := nw.Deliver("a", "b", item()); ok {
			delivered++
		} else {
			dropped++
		}
	}
	if delivered == 0 || dropped == 0 {
		t.Fatalf("p=0.5 should both deliver and drop (delivered=%d dropped=%d)", delivered, dropped)
	}
	if got := nw.Link("a", "b"); int(got.Dropped) != dropped || int(got.Messages) != delivered {
		t.Errorf("link stats %+v disagree with delivered=%d dropped=%d", got, delivered, dropped)
	}
	// The reverse link is unaffected.
	if _, ok := nw.Deliver("b", "a", item()); !ok {
		t.Error("reverse link should not drop")
	}
	nw.SetDrop("a", "b", 0)
	if _, ok := nw.Deliver("a", "b", item()); !ok {
		t.Error("clearing the injection should stop the loss")
	}
}

func TestExtraDelayInjection(t *testing.T) {
	nw := New(Options{Seed: 1, BaseLatency: 5 * time.Millisecond, LatencyPerUnit: 0})
	nw.AddNode("a")
	nw.AddNode("b")
	base := nw.Latency("a", "b")
	nw.SetExtraDelay("a", "b", 30*time.Millisecond)
	if got := nw.Latency("a", "b"); got != base+30*time.Millisecond {
		t.Errorf("latency with extra delay = %v, want %v", got, base+30*time.Millisecond)
	}
	if got := nw.Latency("b", "a"); got != base {
		t.Errorf("reverse latency = %v, want %v", got, base)
	}
	// Extra delay stacks on top of an explicit override too.
	nw.SetLatency("a", "b", time.Millisecond)
	if got := nw.Latency("a", "b"); got != 31*time.Millisecond {
		t.Errorf("override+delay = %v, want 31ms", got)
	}
	nw.SetExtraDelay("a", "b", 0)
	if got := nw.Latency("a", "b"); got != time.Millisecond {
		t.Errorf("cleared delay = %v, want 1ms", got)
	}
}

func TestEOSNeverDropped(t *testing.T) {
	nw := New(Options{Seed: 1})
	nw.AddNode("a")
	nw.AddNode("b")
	nw.Crash("b")
	if _, ok := nw.Deliver("a", "b", stream.EOSItem("s@a")); !ok {
		t.Error("eos should pass through a down link")
	}
	if got := nw.Totals(); got.Messages != 0 || got.Dropped != 0 {
		t.Errorf("eos should not be accounted: %+v", got)
	}
}

func TestDeliverHookDropsToQueue(t *testing.T) {
	nw := New(Options{Seed: 1})
	nw.AddNode("a")
	nw.AddNode("b")
	q := stream.NewQueue()
	hook := nw.DeliverHook("a", "b", q)
	hook(item())
	nw.Crash("b")
	hook(item())
	if q.Len() != 1 {
		t.Errorf("queue has %d items, want only the pre-crash one", q.Len())
	}
}

// TestLossIgnoresOtherTraffic: whether the n-th item of one source on a
// lossy link is lost does not depend on what else the network carries —
// pings on the same link, items of another source, other lossy links —
// nor on their order, so loops that send at once cannot trade draws.
func TestLossIgnoresOtherTraffic(t *testing.T) {
	mine := stream.Item{Tree: xmltree.ElemText("x", "payload"), Source: "ev@a"}
	other := stream.Item{Tree: xmltree.ElemText("x", "payload"), Source: "out@c"}
	verdicts := func(busy bool) []bool {
		nw := New(Options{Seed: 3})
		for _, n := range []string{"a", "b", "c", "d"} {
			nw.AddNode(n)
		}
		nw.SetDrop("a", "b", 0.5)
		nw.SetDrop("c", "d", 0.5)
		var got []bool
		for i := 0; i < 200; i++ {
			if busy {
				nw.Ping("a", "b", 48)
				nw.Deliver("a", "b", other)
				nw.Deliver("c", "d", mine)
			}
			_, ok := nw.Deliver("a", "b", mine)
			got = append(got, ok)
		}
		return got
	}
	alone, busy := verdicts(false), verdicts(true)
	for i := range alone {
		if alone[i] != busy[i] {
			t.Fatalf("item %d of ev@a on a→b: delivered=%v alone, %v beside other traffic", i, alone[i], busy[i])
		}
	}
}
