package peer

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"p2pm/internal/simnet"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// linkWorld is two monitored WS sources, s1 and s2, and a caller c.
func linkWorld(t *testing.T) *System {
	t.Helper()
	sys := MustSystem(DefaultConfig())
	for _, name := range []string{"c", "s1", "s2"} {
		p := sys.MustAddPeer(name)
		if name != "c" {
			p.Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
				return xmltree.ElemText("r", "ok"), nil
			}, nil)
		}
	}
	return sys
}

// linkSub is the subscription every manager deploys: the calls to either
// source, as they are.
const linkSub = `for $e in inCOM(<p>s1</p><p>s2</p>) return <hit m="{$e.callMethod}" id="{$e.callId}"/>`

// linkCalls is how many calls the caller makes, alternating sources.
const linkCalls = 20

// linkRun is what linkCost measures after deployment: the traffic of
// linkCalls calls, the messages each manager received, the operators
// deployed and each subscription's results.
type linkRun struct {
	traffic  simnet.Totals
	received []uint64
	ops      int
	results  [][]string
}

// linkCost deploys n copies of linkSub — all at one manager when shared,
// at n managers otherwise — and drives linkCalls calls.
func linkCost(t *testing.T, n int, shared bool) linkRun {
	t.Helper()
	sys := linkWorld(t)
	var tasks []*Task
	var run linkRun
	for i := 0; i < n; i++ {
		mgr := "mgr"
		if !shared {
			mgr = fmt.Sprintf("mgr%d", i)
		}
		task, err := sys.MustAddPeer(mgr).Subscribe(linkSub)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
		run.ops += task.OperatorsDeployed()
	}
	sys.Quiesce()
	sys.Net.ResetTraffic()
	caller := sys.Peer("c").Endpoint()
	for i := 0; i < linkCalls; i++ {
		if _, err := caller.Invoke(fmt.Sprintf("s%d", 1+i%2), "Q", nil); err != nil {
			t.Fatal(err)
		}
	}
	sys.Quiesce()
	run.traffic = sys.Net.Totals()
	run.results = make([][]string, n)
	for i, task := range tasks {
		var in uint64
		for _, p := range sys.Peers() {
			in += sys.Net.Link(p, task.Manager).Messages
		}
		run.received = append(run.received, in)
		task.Stop()
		for _, it := range task.Results().Drain() {
			run.results[i] = append(run.results[i], it.Tree.String())
		}
	}
	return run
}

// TestLinkCostIndependentOfSubscriptions is the network share of the
// gate "per-item cost at 1 000 subscriptions within 3× of 1
// subscription": N identical subscriptions at one manager share every
// operator but their publishers, and the link that carries the shared
// stream to the manager, so a call costs the same messages and bytes at
// N = 1 000 as at N = 1. At N managers (the C7 shape) each manager still
// pays its own crossing.
func TestLinkCostIndependentOfSubscriptions(t *testing.T) {
	base := linkCost(t, 1, true)
	if len(base.results[0]) != linkCalls || base.received[0] == 0 {
		t.Fatalf("one subscription got %d results over %d messages, want %d results",
			len(base.results[0]), base.received[0], linkCalls)
	}
	// Two sources feed one union, so the order of results is the
	// schedule's between runs, and the stream's within one.
	sorted := func(r []string) string {
		r = append([]string(nil), r...)
		sort.Strings(r)
		return fmt.Sprint(r)
	}
	sameResults := func(what string, res [][]string) {
		t.Helper()
		if sorted(res[0]) != sorted(base.results[0]) {
			t.Errorf("%s: got %v, want %v", what, res[0], base.results[0])
		}
		for i, r := range res {
			if fmt.Sprint(r) != fmt.Sprint(res[0]) {
				t.Errorf("%s: subscription %d got %v, subscription 0 %v", what, i, r, res[0])
				return
			}
		}
	}
	perCall := func(v uint64) float64 { return float64(v) / linkCalls }
	for _, n := range []int{100, 1000} {
		what := fmt.Sprintf("N=%d at one manager", n)
		run := linkCost(t, n, true)
		if got, want := run.traffic, base.traffic; got.Messages != want.Messages || got.Bytes != want.Bytes {
			t.Errorf("%s: %.1f messages, %.1f B per call; N=1: %.1f, %.1f", what,
				perCall(got.Messages), perCall(got.Bytes), perCall(want.Messages), perCall(want.Bytes))
		}
		if run.ops != n+base.ops-1 {
			t.Errorf("%s deploys %d operators, want N + %d", what, run.ops, base.ops-1)
		}
		sameResults(what, run.results)
	}
	for _, n := range []int{10, 100} {
		what := fmt.Sprintf("N=%d managers", n)
		run := linkCost(t, n, false)
		for i, in := range run.received {
			if in != base.received[0] {
				t.Errorf("%s: manager %d received %d messages, one manager alone %d", what, i, in, base.received[0])
				break
			}
		}
		sameResults(what, run.results)
	}
}

// joiner is one edge of the join test: where it attached and what it got.
type joiner struct {
	e        *edge
	fromSeq  uint64 // requested resume point, 0 for "now"
	lo, hi   uint64 // the channel's sequence just before and after attach
	received []uint64
}

// TestLinkJoinWhilePublishing attaches edges of one consumer peer to a
// channel another peer publishes into, one at a time while the producer
// keeps publishing, at "now" and from a retained sequence, with the
// replay layer on and off. Every edge after the first joins the link the
// first created. Each must get every sequence it is owed exactly once and
// in order, and nothing from before its attach point: from the requested
// sequence when it resumed with the replay layer on, else from the
// channel's sequence at the attach. End-of-stream closes every consumer,
// and once the last edge leaves the channel has no subscriber.
func TestLinkJoinWhilePublishing(t *testing.T) {
	const items, edges = 400, 12
	for _, replay := range []bool{false, true} {
		t.Run(fmt.Sprintf("replay=%v", replay), func(t *testing.T) {
			cfg := DefaultConfig()
			if replay {
				cfg = replayOptions()
			}
			sys := MustSystem(cfg)
			sys.MustAddPeer("src")
			sys.MustAddPeer("dst")
			ch := stream.NewChannel("src", "ev")
			sys.registerChannel(ch)
			published := make(chan struct{})
			go func() {
				defer close(published)
				for i := 0; i < items; i++ {
					ch.Publish(stream.Item{Tree: xmltree.Elem("e")})
				}
			}()
			var js []*joiner
			for i := 0; i < edges; i++ {
				for ch.Seq() < uint64(i*items/(edges+1)) {
					runtime.Gosched() // spread the attaches over the stream
				}
				j := &joiner{e: sys.newEdge(nil, "dst")}
				j.e.into(stream.NewQueue(), 0, replay)
				j.lo = ch.Seq()
				if i%2 == 1 && j.lo > 0 {
					j.fromSeq = 1 + j.lo/2
				}
				j.e.attach(ch, j.fromSeq)
				j.hi = ch.Seq()
				js = append(js, j)
			}
			<-published
			sys.linkMu.Lock()
			l := sys.links[linkKey{ch, "dst"}]
			sys.linkMu.Unlock()
			if l == nil || len(*l.ends.Load()) != edges || ch.SubscriberCount() != 1 {
				t.Fatalf("%d edges of one peer hold %d subscriptions", edges, ch.SubscriberCount())
			}
			ch.Close()
			for _, j := range js {
				if !j.e.queue.Closed() {
					t.Errorf("edge %d: end-of-stream left its queue open", j.e.id)
				}
				for _, it := range j.e.queue.Drain() {
					j.received = append(j.received, it.Seq)
				}
				first := j.lo + 1 // the earliest a "now" attach may start
				if replay && j.fromSeq > 0 {
					first = j.fromSeq
				}
				if len(j.received) == 0 {
					if j.hi < items {
						t.Errorf("edge %d attached at %d..%d and got nothing", j.e.id, j.lo, j.hi)
					}
					continue
				}
				start := j.received[0]
				switch {
				case replay && j.fromSeq > 0 && start != j.fromSeq:
					t.Errorf("edge %d resumed from %d but starts at %d", j.e.id, j.fromSeq, start)
				case start < first || start > j.hi+1:
					t.Errorf("edge %d attached at %d..%d but starts at %d", j.e.id, j.lo, j.hi, start)
				}
				for k, seq := range j.received {
					if seq != start+uint64(k) {
						t.Errorf("edge %d: item %d is sequence %d, want %d", j.e.id, k, seq, start+uint64(k))
						break
					}
				}
				if last := j.received[len(j.received)-1]; last != items {
					t.Errorf("edge %d ends at %d, want %d", j.e.id, last, items)
				}
			}
			for _, j := range js {
				j.e.close()
			}
			sys.linkMu.Lock()
			left := len(sys.links)
			sys.linkMu.Unlock()
			if n := ch.SubscriberCount(); n != 0 || left != 0 {
				t.Errorf("after the last edge left: %d subscribers, %d links", n, left)
			}
		})
	}
}

// TestMoveRebindsEveryEdgeOfALink crashes the relay rig's relay, whose
// stream reaches mgr through one link carrying both subscriptions. The
// move re-binds both edges onto one link from the relay's new host, and
// the old channel keeps no subscriber at mgr.
func TestMoveRebindsEveryEdgeOfALink(t *testing.T) {
	r := newRelayRig(t, replayOptions())
	old := r.sys.edgesOf(r.reader.edges[0].src.Ref())
	oldCh := r.reader.edges[0].src
	if len(old) != 2 || old[0].link == nil || old[0].link != old[1].link {
		t.Fatalf("the relay's stream reaches mgr over %d edges, not one link", len(old))
	}
	for i := 1; i <= 5; i++ {
		r.emit()
		r.sys.Step(time.Second)
	}
	r.sys.Net.Crash("w1") //nolint:errcheck // known node
	r.sys.FailPeer("w1", r.sys.Net.Clock().Now())
	if got := relayHost(r.task); got != "w2" {
		t.Fatalf("relay on %s after the crash, want w2", got)
	}
	moved := r.sys.edgesOf(r.reader.edges[0].src.Ref())
	if len(moved) != 2 || moved[0].link == nil || moved[0].link != moved[1].link || moved[0].link.from != "w2" {
		t.Fatalf("after the move the relay's stream reaches mgr over %d edges, not one link from w2", len(moved))
	}
	for _, name := range oldCh.Subscribers() {
		if name == "mgr" {
			t.Errorf("the abandoned channel %s still has a subscriber at mgr", oldCh.Ref())
		}
	}
	for i := 6; i <= 10; i++ {
		r.emit()
		r.sys.Step(time.Second)
	}
	r.syncUntil(t, 10)
	assertEdges(t, r.sys)
	r.task.Stop()
	r.reader.Stop()
	assertEdges(t, r.sys, r.task, r.reader)
	assertExactlyOnce(t, r.task, 10)
	assertExactlyOnce(t, r.reader, 10)
}

// TestLinkJoinSkipsAPublicationInFlight holds one publication between
// the channel numbering it and the link delivering it, attaches a second
// edge in that gap, and lets the delivery go on: the item predates the
// second edge, which must start at the next one, with the replay layer on
// (the cursor drops it) and off (the link does).
func TestLinkJoinSkipsAPublicationInFlight(t *testing.T) {
	for _, replay := range []bool{false, true} {
		t.Run(fmt.Sprintf("replay=%v", replay), func(t *testing.T) {
			cfg := DefaultConfig()
			if replay {
				cfg = replayOptions()
			}
			sys := MustSystem(cfg)
			sys.MustAddPeer("src")
			sys.MustAddPeer("dst")
			ch := stream.NewChannel("src", "ev")
			sys.registerChannel(ch)
			entered, release := make(chan struct{}), make(chan struct{})
			ch.Subscribe("gate", func(it stream.Item) {
				if it.Seq == 2 {
					close(entered)
					<-release
				}
			})
			var es []*edge
			attach := func() {
				e := sys.newEdge(nil, "dst")
				e.into(stream.NewQueue(), 0, replay)
				e.attach(ch, 0)
				es = append(es, e)
			}
			attach()
			ch.Publish(stream.Item{Tree: xmltree.Elem("e")})
			done := make(chan struct{})
			go func() {
				ch.Publish(stream.Item{Tree: xmltree.Elem("e")})
				close(done)
			}()
			<-entered
			attach()
			close(release)
			<-done
			ch.Publish(stream.Item{Tree: xmltree.Elem("e")})
			ch.Close()
			for i, want := range []string{"[1 2 3]", "[3]"} {
				var got []uint64
				for _, it := range es[i].queue.Drain() {
					got = append(got, it.Seq)
				}
				if fmt.Sprint(got) != want {
					t.Errorf("edge %d got %v, want %s", i, got, want)
				}
				es[i].close()
			}
		})
	}
}
