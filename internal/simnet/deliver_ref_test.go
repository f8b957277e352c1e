package simnet

import (
	"math/rand"
	"testing"
	"time"

	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// deliverRef is Deliver as it was composed before it took one critical
// section: Reachable, lose, countDropped and Send, each locking on its
// own. It is the reference TestDeliverMatchesReference holds Deliver to.
func (nw *Network) deliverRef(from, to string, it stream.Item) (stream.Item, bool) {
	if !it.EOS() && (!nw.Reachable(from, to) || nw.loseRef(from, to, it.Source)) {
		nw.countDroppedRef(from, to)
		return it, false
	}
	return nw.Send(from, to, it), true
}

// pingRef is Ping as it was composed, beside deliverRef.
func (nw *Network) pingRef(from, to string, bytes int) (time.Duration, bool) {
	if from == to {
		return 0, true
	}
	if !nw.Reachable(from, to) || nw.loseRef(from, to, pingClass) {
		nw.countDroppedRef(from, to)
		return 0, false
	}
	nw.CountTransfer(from, to, bytes)
	return nw.Latency(from, to), true
}

// loseRef takes the lock for the loss policy alone. The reference checks
// the single critical section, not the policy, so both sides share it.
func (nw *Network) loseRef(from, to, class string) bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.loseLocked(from, to, class)
}

func (nw *Network) countDroppedRef(from, to string) {
	if from == to {
		return
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	key := [2]string{from, to}
	ls := nw.links[key]
	if ls == nil {
		ls = &LinkStats{}
		nw.links[key] = ls
	}
	ls.Dropped++
	nw.dropped.Inc()
}

// TestDeliverMatchesReference: two networks of one seed take the same
// seeded schedule of crashes, recoveries, partitions, heals, drop and
// delay injections, latency overrides, deliveries (eos and local ones
// included) and pings — one through Deliver and Ping, the other through
// the composition they replaced. Every arrival stamp and verdict, every
// link's stats and the totals must agree.
func TestDeliverMatchesReference(t *testing.T) {
	type faults struct{ crash, partition, drop, delay bool }
	cases := []struct {
		name string
		seed int64
		f    faults
	}{
		{"none", 1, faults{}},
		{"crash", 2, faults{crash: true}},
		{"partition", 3, faults{partition: true}},
		{"drop", 4, faults{drop: true}},
		{"delay", 5, faults{delay: true}},
		{"all", 6, faults{true, true, true, true}},
		{"all-2008", 2008, faults{true, true, true, true}},
	}
	names := []string{"a", "b", "c", "d", "e", "f"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ref := New(Options{Seed: tc.seed}), New(Options{Seed: tc.seed})
			for _, n := range names {
				got.AddNode(n)
				ref.AddNode(n)
			}
			both := func(f func(nw *Network)) { f(got); f(ref) }
			r := rand.New(rand.NewSource(tc.seed))
			pick := func() string { return names[r.Intn(len(names))] }
			for i := 0; i < 5000; i++ {
				a, b := pick(), pick()
				switch k := r.Intn(20); {
				case k == 0 && tc.f.crash:
					both(func(nw *Network) { nw.Crash(a) })
				case k == 1 && tc.f.crash:
					both(func(nw *Network) { nw.Recover(a) })
				case k == 2 && tc.f.partition:
					x, y := names[:r.Intn(len(names))], names[r.Intn(len(names)):]
					both(func(nw *Network) { nw.Partition(x, y) })
				case k == 3 && tc.f.partition:
					both(func(nw *Network) { nw.Heal() })
				case k == 4 && tc.f.drop:
					p := r.Float64() - 0.2 // sometimes clears
					both(func(nw *Network) { nw.SetDrop(a, b, p) })
				case k == 5 && tc.f.delay:
					d := time.Duration(r.Intn(40)-10) * time.Millisecond
					both(func(nw *Network) { nw.SetExtraDelay(a, b, d) })
				case k == 6 && tc.f.delay:
					d := time.Duration(r.Intn(30)) * time.Millisecond
					both(func(nw *Network) { nw.SetLatency(a, b, d) })
				case k == 7:
					bytes := r.Intn(500)
					lg, okg := got.Ping(a, b, bytes)
					lr, okr := ref.pingRef(a, b, bytes)
					if lg != lr || okg != okr {
						t.Fatalf("step %d: Ping(%s, %s) = %v, %v; reference %v, %v", i, a, b, lg, okg, lr, okr)
					}
				default:
					it := stream.Item{Tree: xmltree.ElemText("x", names[r.Intn(len(names))]), Time: time.Duration(i) * time.Millisecond}
					if r.Intn(50) == 0 {
						it = stream.EOSItem("s")
					}
					ig, okg := got.Deliver(a, b, it)
					ir, okr := ref.deliverRef(a, b, it)
					if ig.Time != ir.Time || okg != okr {
						t.Fatalf("step %d: Deliver(%s, %s) = %v, %v; reference %v, %v", i, a, b, ig.Time, okg, ir.Time, okr)
					}
				}
			}
			for _, a := range names {
				for _, b := range names {
					if g, w := got.Link(a, b), ref.Link(a, b); g != w {
						t.Errorf("link %s→%s: %+v, reference %+v", a, b, g, w)
					}
				}
			}
			if g, w := got.Totals(), ref.Totals(); g != w {
				t.Errorf("totals %+v, reference %+v", g, w)
			}
			if tc.f.drop && got.Totals().Dropped == 0 {
				t.Error("drop injection lost nothing: the schedule does not exercise it")
			}
		})
	}
}

// TestLossDrawsLeaveCoordinatesAlone: the loss policy reads no shared
// stream, so a node added after 1 000 deliveries over lossy links sits
// where it would in a network that carried nothing.
func TestLossDrawsLeaveCoordinatesAlone(t *testing.T) {
	busy, idle := New(Options{Seed: 7}), New(Options{Seed: 7})
	for _, n := range []string{"a", "b"} {
		busy.AddNode(n)
		idle.AddNode(n)
	}
	busy.SetDrop("a", "b", 0.5)
	busy.SetDrop("b", "a", 0.5)
	it := stream.Item{Tree: xmltree.ElemText("x", "payload"), Source: "s@a"}
	for i := 0; i < 500; i++ {
		busy.Deliver("a", "b", it)
		busy.Deliver("b", "a", it)
	}
	if busy.Totals().Dropped == 0 {
		t.Fatal("no delivery was lost: the links are not lossy")
	}
	got, want := busy.AddNode("late"), idle.AddNode("late")
	if got.X != want.X || got.Y != want.Y {
		t.Errorf("late node at (%v, %v) after lossy traffic, (%v, %v) in an idle network", got.X, got.Y, want.X, want.Y)
	}
}
