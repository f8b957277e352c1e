package reuse_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"p2pm/internal/algebra"
	"p2pm/internal/peer"
	"p2pm/internal/reuse"
	"p2pm/internal/xmltree"
)

// mixWorld is a system whose manager mgr subscribes over sources s0…,
// with aggregation trees of fan-in 3 hosted on w0…w3.
func mixWorld(t *testing.T, sources int) (*peer.System, *peer.Peer) {
	t.Helper()
	pc := peer.DefaultConfig()
	pc.Agg.Degree = 3
	sys, err := peer.NewSystem(pc)
	if err != nil {
		t.Fatal(err)
	}
	mgr := sys.MustAddPeer("mgr")
	for i := 0; i < sources; i++ {
		sys.MustAddPeer(fmt.Sprintf("s%d", i)).Endpoint().Register("Q",
			func(*xmltree.Node) (*xmltree.Node, error) { return xmltree.Elem("ok"), nil }, nil)
	}
	for i := 0; i < 4; i++ {
		sys.MustAddPeer(fmt.Sprintf("w%d", i))
	}
	sys.SetAggHosts(func(name string) bool { return name[0] == 'w' })
	return sys, mgr
}

// inCOM names sources s<lo>..s<hi-1>.
func inCOM(lo, hi int) string {
	var b strings.Builder
	for i := lo; i < hi; i++ {
		fmt.Fprintf(&b, "<p>s%d</p>", i)
	}
	return "inCOM(" + b.String() + ")"
}

// TestApplyMatchesReferenceOnSubscriptionMix: the 50-subscription mix of
// kadop's TestLookupSharesButNeverMutates — a tree every later aggregate
// grafts from, contained and duplicate aggregates, the same aggregates in
// P2PML, filters and the filters they subsume — each checked against the
// bottom-up reference on the database the subscriptions before it left,
// then deployed.
func TestApplyMatchesReferenceOnSubscriptionMix(t *testing.T) {
	const sources = 8
	sys, mgr := mixWorld(t, sources)
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
	o := reuse.Options{From: "mgr", Consumer: "mgr"}
	exact := 0
	for i := 0; i < 50; i++ {
		lo := i % 5
		hi := lo + 2 + i%3
		var plan *algebra.Node
		var src string
		switch {
		case i == 0:
			plan = groupPlan(0, sources, "t0")
		case i%4 == 0:
			plan = groupPlan(lo, hi, fmt.Sprintf("t%d", i))
		case i%4 == 1:
			src = fmt.Sprintf(`for $e in %s return $e group on "callee" window "24s" by publish as channel "g%d"`, inCOM(lo, hi), i)
		case i%4 == 2:
			src = fmt.Sprintf(`for $e in %s where $e.callMethod = "Q" return $e by publish as channel "f%d"`, inCOM(lo, lo+1), i)
		default:
			src = fmt.Sprintf(`for $e in %s where $e.callMethod = "Q" and $e.caller = "c%d" return $e by publish as channel "n%d"`, inCOM(lo, lo+1), i%2, i)
		}
		var task *peer.Task
		var err error
		if plan != nil {
			res := reuse.CheckAgainstReference(t, o, algebra.MarkBodyReaders(plan.Clone()), sys.DB)
			if res.NewOps == 0 {
				exact++
			}
			task, err = mgr.DeployPlanShared(plan)
		} else {
			ex, eerr := sys.Explain(src, "mgr")
			if eerr != nil {
				t.Fatalf("subscription %d: %v", i, eerr)
			}
			res := reuse.CheckAgainstReference(t, o, ex.Optimized, sys.DB)
			if !reflect.DeepEqual(res.Mappings, ex.Reuse.Mappings) {
				t.Errorf("subscription %d: the pipeline mapped %+v, Apply %+v", i, ex.Reuse.Mappings, res.Mappings)
			}
			if res.NewOps == 0 {
				exact++
			}
			task, err = mgr.Subscribe(src)
		}
		if err != nil {
			t.Fatalf("subscription %d: %v", i, err)
		}
		defer task.Stop()
	}
	if exact == 0 {
		t.Error("no subscription was fully covered: the mix does not exercise the probe's hit")
	}
}

// TestExactGroupCostsTwoQueries: a group subscription whose aggregate
// already runs is discovered by one signature query and one replica
// query, however many sources it spans. The bottom-up pass asked k + 3
// (one per alerter, the union, the group, the replicas): 3, 7 and 19
// here, one source having no union.
// TestExactHitCostsTwoRingLookups: an exact hit's deployment asks the
// ring only the reuse pass's two queries — the signature probe and the
// replica lookup. Publishing the task's descriptors adopts the definition
// the probe read instead of looking it up a third time.
func TestExactHitCostsTwoRingLookups(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			sys, mgr := mixWorld(t, k)
			sub := `for $e in ` + inCOM(0, k) + ` return $e group on "callee" window "24s" by publish as channel "g%d"`
			first, err := mgr.Subscribe(fmt.Sprintf(sub, 0))
			if err != nil {
				t.Fatal(err)
			}
			defer first.Stop()
			for i := 1; i <= 3; i++ {
				before, _ := sys.Ring.Stats()
				again, err := mgr.Subscribe(fmt.Sprintf(sub, i))
				if err != nil {
					t.Fatal(err)
				}
				defer again.Stop()
				after, _ := sys.Ring.Stats()
				if got := after - before; got != 2 || again.Reuse.Lookups != 2 {
					t.Errorf("k = %d, hit %d: %d ring lookups for %d discovery queries, want 2 and 2", k, i, got, again.Reuse.Lookups)
				}
			}
		})
	}
}

func TestExactGroupCostsTwoQueries(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			_, mgr := mixWorld(t, k)
			sub := `for $e in ` + inCOM(0, k) + ` return $e group on "callee" window "24s" by publish as channel "g%d"`
			first, err := mgr.Subscribe(fmt.Sprintf(sub, 0))
			if err != nil {
				t.Fatal(err)
			}
			defer first.Stop()
			again, err := mgr.Subscribe(fmt.Sprintf(sub, 1))
			if err != nil {
				t.Fatal(err)
			}
			defer again.Stop()
			if again.Reuse.Lookups != 2 || again.OperatorsDeployed() != 1 {
				t.Errorf("k = %d: %d discovery queries and %d operators deployed, want 2 and 1 (the publisher):\n%s",
					k, again.Reuse.Lookups, again.OperatorsDeployed(), again.Plan.Tree())
			}
		})
	}
}
