package kadop_test

import (
	"fmt"
	"strings"
	"testing"

	"p2pm/internal/algebra"
	"p2pm/internal/dht"
	"p2pm/internal/kadop"
	"p2pm/internal/p2pml"
	"p2pm/internal/peer"
	"p2pm/internal/reuse"
	"p2pm/internal/xmltree"
)

// newDB returns a database over a ring of members dht-0, dht-1, … and a
// per-peer stream-id generator for reuse.PublishPlan.
func newDB(tb testing.TB, members int) (*kadop.DB, func(peer string) string) {
	tb.Helper()
	ring := dht.New()
	for i := 0; i < members; i++ {
		if err := ring.Join(fmt.Sprintf("dht-%d", i)); err != nil {
			tb.Fatal(err)
		}
	}
	counters := map[string]int{}
	return kadop.New(ring), func(peer string) string {
		counters[peer]++
		return fmt.Sprintf("s%d", counters[peer])
	}
}

func verifyMemo(t *testing.T, db *kadop.DB, atLeast int) {
	t.Helper()
	n, err := db.VerifyMemo()
	if err != nil {
		t.Fatal(err)
	}
	if n < atLeast {
		t.Fatalf("memo holds %d descriptors, expected at least %d: the scenario did not exercise it", n, atLeast)
	}
}

// TestLookupSharesButNeverMutates: lookups hand every caller the same
// decoded descriptor, so no caller may write through it. Drive every
// consumer of lookup results — exact match, subsumption chains, aggregate
// grafts, replica choice, PublishPlan's adoption of published signatures
// and source sets — then decode every memoized record again and compare.
func TestLookupSharesButNeverMutates(t *testing.T) {
	t.Run("reuse", func(t *testing.T) {
		db, nextID := newDB(t, 8)
		const join = `for $c1 in outCOM(<p>a.com</p><p>b.com</p>), $c2 in inCOM(<p>meteo.com</p>)
			let $duration := $c1.responseTimestamp - $c1.callTimestamp
			where $duration > 10 and $c1.callMethod = "GetTemperature" and $c1.callId = $c2.callId
			return %s by publish as channel "%s"`
		const fresh = 3 // subs[fresh] shares nothing with the ones before it
		subs := []string{
			fmt.Sprintf(join, `<incident><client>{$c1.caller}</client></incident>`, "qos"),
			fmt.Sprintf(join, `<incident><client>{$c1.caller}</client></incident>`, "qosAgain"), // exact
			fmt.Sprintf(join, `<slow client="{$c1.caller}"/>`, "slow"),                          // exact below Π
			`for $e in inCOM(<p>m.com</p>) where $e.callMethod = "Q" return $e by publish as channel "base"`,
			// Subsumed by "base": a residual σ over its channel.
			`for $e in inCOM(<p>m.com</p>) where $e.callMethod = "Q" and $e.caller = "x" return $e by publish as channel "narrow"`,
			// Chained through "narrow".
			`for $z in inCOM(<p>m.com</p>) where $z.callMethod = "Q" and $z.caller = "x" and $z.fault != "" return $z by publish as channel "chain"`,
		}
		for i, src := range subs {
			plan, err := algebra.Compile(p2pml.MustParse(src))
			if err != nil {
				t.Fatal(err)
			}
			plan = algebra.Optimize(plan, algebra.DefaultOptions(fmt.Sprintf("mgr%d", i)))
			res, err := reuse.Options{From: "dht-1"}.Apply(plan, db)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && i != fresh && res.ReusedOps == 0 {
				t.Errorf("subscription %d reused nothing:\n%s", i, res.Plan.Tree())
			}
			if _, err := reuse.PublishPlan(db, res.Plan, nil, nextID); err != nil {
				t.Fatal(err)
			}
			verifyMemo(t, db, 0)
		}
		verifyMemo(t, db, 5)
	})

	t.Run("subscribe", func(t *testing.T) {
		pc := peer.DefaultConfig()
		pc.Agg.Degree = 3
		sys, err := peer.NewSystem(pc)
		if err != nil {
			t.Fatal(err)
		}
		mgr := sys.MustAddPeer("mgr")
		const sources = 8
		for i := 0; i < sources; i++ {
			sys.MustAddPeer(fmt.Sprintf("s%d", i)).Endpoint().Register("Q",
				func(*xmltree.Node) (*xmltree.Node, error) { return xmltree.Elem("ok"), nil }, nil)
		}
		for i := 0; i < 4; i++ {
			sys.MustAddPeer(fmt.Sprintf("w%d", i))
		}
		sys.SetAggHosts(func(name string) bool { return name[0] == 'w' })
		inCOM := func(lo, hi int) string {
			var b strings.Builder
			for i := lo; i < hi; i++ {
				fmt.Fprintf(&b, "<p>s%d</p>", i)
			}
			return "inCOM(" + b.String() + ")"
		}
		// groupPlan is the programmatic form of a windowed count over the
		// union of sources [lo, hi): the shape aggregate grafting covers.
		groupPlan := func(lo, hi int, channel string) *algebra.Node {
			var branches []*algebra.Node
			for i := lo; i < hi; i++ {
				branches = append(branches, algebra.NewAlerter("inCOM", "ws-in", fmt.Sprintf("s%d", i), "e", nil))
			}
			union := &algebra.Node{Op: algebra.OpUnion, Peer: "w0", Inputs: branches, Schema: []string{"e"}}
			group := &algebra.Node{Op: algebra.OpGroup, Peer: "w0", Inputs: []*algebra.Node{union}, Schema: []string{"e"},
				Group: &algebra.GroupSpec{KeyAttr: "callee", Window: "24s"}}
			return &algebra.Node{Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{group}, Schema: []string{"e"},
				Publish: &algebra.PublishSpec{ChannelID: channel}}
		}
		reused := 0
		var tasks []*peer.Task
		for i := 0; i < 50; i++ {
			lo := i % 5
			hi := lo + 2 + i%3 // ≤ sources
			var task *peer.Task
			var err error
			switch {
			case i == 0: // the tree every later aggregate grafts from
				task, err = mgr.DeployPlanShared(groupPlan(0, sources, "t0"))
			case i%4 == 0: // contained or duplicate aggregates: graft / exact
				task, err = mgr.DeployPlanShared(groupPlan(lo, hi, fmt.Sprintf("t%d", i)))
			case i%4 == 1: // the same aggregate as a P2PML subscription
				task, err = mgr.Subscribe(fmt.Sprintf(`for $e in %s return $e group on "callee" window "24s" by publish as channel "g%d"`, inCOM(lo, hi), i))
			case i%4 == 2: // a filter others narrow
				task, err = mgr.Subscribe(fmt.Sprintf(`for $e in %s where $e.callMethod = "Q" return $e by publish as channel "f%d"`, inCOM(lo, lo+1), i))
			default: // subsumed by a filter above: residual σ over its channel
				task, err = mgr.Subscribe(fmt.Sprintf(`for $e in %s where $e.callMethod = "Q" and $e.caller = "c%d" return $e by publish as channel "n%d"`, inCOM(lo, lo+1), i%2, i))
			}
			if err != nil {
				t.Fatalf("subscription %d: %v", i, err)
			}
			if task.Reuse != nil {
				reused += task.Reuse.ReusedOps
				if task.Reuse.FailedLookups != 0 {
					t.Errorf("subscription %d: %d failed lookups", i, task.Reuse.FailedLookups)
				}
			}
			tasks = append(tasks, task)
		}
		if reused == 0 {
			t.Error("no subscription reused anything: the mix does not exercise lookup results")
		}
		verifyMemo(t, sys.DB, sources)
		for _, task := range tasks {
			task.Stop()
			verifyMemo(t, sys.DB, 0)
		}
		// Stop retracts what its task published, so the memo holds the
		// descriptors of live streams only.
		if n, _ := sys.DB.VerifyMemo(); n != 0 {
			t.Errorf("memo holds %d descriptors after every task stopped", n)
		}
	})
}
