package algebra

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"p2pm/internal/monoid"
	"p2pm/internal/p2pml"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// This file implements a reference interpreter for monitoring plans over
// *finite* input sets and uses it for the central semantic property:
// optimization (canonicalization, selection pushdown, placement) never
// changes a plan's results.

// traceStep spaces an alerter's inputs in time: its j-th input happens
// at j·traceStep, so a γ's window decides which records share a window.
const traceStep = 11 * time.Second

// alerterKey names an alerter's inputs: function, monitored peer and
// non-<p> arguments, what tells two alerters' streams apart.
func alerterKey(a *AlerterSpec, peer string) string {
	return a.Func + "@" + peer + signedArgs(a.Args)
}

// evalPlan evaluates a plan over fixed per-alerter inputs, ignoring
// placement. An alerter MarkBodyReaders called bare emits its inputs
// without their children, as the tap builds its alerts without the
// envelope. A dynamic alerter set is one alerter per member a p-join of
// its driver names. Joins are evaluated as full cross-products filtered
// by their predicates, stamped with the later partner's time, so the
// result is order-insensitive; a δ keeps the earliest of equal items and
// a γ folds its input in time order, so neither depends on the order of
// a ∪'s inputs. It fails on an operator it does not evaluate (see
// evaluable) and on a Π that errs.
func evalPlan(n *Node, inputs map[string][]*xmltree.Node) ([]stream.Item, error) {
	var ins [][]stream.Item
	for _, in := range n.Inputs {
		items, err := evalPlan(in, inputs)
		if err != nil {
			return nil, err
		}
		ins = append(ins, items)
	}
	var out []stream.Item
	switch n.Op {
	case OpAlerter:
		out = alerterItems(n, inputs[alerterKey(n.Alerter, n.Alerter.Peer)])
	case OpDynAlerter:
		members := map[string]bool{}
		for _, it := range ins[0] {
			if it.Tree.Label == "p-join" {
				members[it.Tree.InnerText()] = true
			}
		}
		for _, m := range slices.Sorted(maps.Keys(members)) {
			out = append(out, alerterItems(n, inputs[alerterKey(n.Alerter, m)])...)
		}
	case OpSelect:
		pred := SelectPred(n.Inputs[0].Schema, n.Select)
		for _, it := range ins[0] {
			if pred(it.Tree) {
				out = append(out, it)
			}
		}
	case OpUnion:
		for _, items := range ins {
			out = append(out, items...)
		}
	case OpJoin:
		lk, rk := JoinKeys(n.Inputs[0].Schema, n.Inputs[1].Schema, n.Join)
		res := JoinResidual(n.Inputs[0].Schema, n.Inputs[1].Schema, n.Join)
		combine := JoinCombine(n.Inputs[0].Schema, n.Inputs[1].Schema)
		for _, l := range ins[0] {
			for _, r := range ins[1] {
				k1, ok1 := lk(l.Tree)
				k2, ok2 := rk(r.Tree)
				if !ok1 || !ok2 || k1 != k2 {
					continue
				}
				if res != nil && !res(l.Tree, r.Tree) {
					continue
				}
				out = append(out, stream.Item{Tree: combine(l.Tree, r.Tree), Time: max(l.Time, r.Time)})
			}
		}
	case OpRestruct:
		apply := RestructApply(n.Inputs[0].Schema, n.Restruct)
		for _, it := range ins[0] {
			tree, err := apply(it.Tree)
			if err != nil {
				return nil, fmt.Errorf("restructure: %w", err)
			}
			if tree != nil {
				out = append(out, stream.Item{Tree: tree, Time: it.Time})
			}
		}
	case OpDistinct:
		seen := map[string]bool{}
		for _, it := range timeOrder(ins[0]) {
			key := it.Tree.Canonical()
			if !seen[key] {
				seen[key] = true
				out = append(out, it)
			}
		}
	case OpGroup:
		return evalGroup(n.Group, ins[0])
	case OpPublish:
		return ins[0], nil
	default:
		return nil, fmt.Errorf("interpreter: unsupported op %v", n.Op)
	}
	return out, nil
}

// alerterItems stamps an alerter's inputs with their times, bare unless
// the alerter carries the envelope.
func alerterItems(n *Node, trees []*xmltree.Node) []stream.Item {
	out := make([]stream.Item, len(trees))
	for j, it := range trees {
		if !n.Envelope() {
			it = &xmltree.Node{Label: it.Label, Attrs: it.Attrs}
		}
		out[j] = stream.Item{Tree: it, Time: time.Duration(j) * traceStep}
	}
	return out
}

// timeOrder sorts items by time, then by content.
func timeOrder(items []stream.Item) []stream.Item {
	items = slices.Clone(items)
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].Time != items[j].Time {
			return items[i].Time < items[j].Time
		}
		return items[i].Tree.Canonical() < items[j].Tree.Canonical()
	})
	return items
}

// evalGroup folds items as a flushed operators.Group does: one state per
// (window, key) of the spec's aggregate, a value the aggregate rejects
// dropped, one <group key window …/> record per state, stamped with the
// latest input time.
func evalGroup(g *GroupSpec, items []stream.Item) ([]stream.Item, error) {
	var window time.Duration
	if g.Window != "" {
		var err error
		if window, err = time.ParseDuration(g.Window); err != nil {
			return nil, err
		}
	}
	agg, ok := monoid.Lookup(g.Fn)
	if !ok {
		return nil, fmt.Errorf("interpreter: unknown aggregate %q", g.Fn)
	}
	type cell struct {
		idx int64
		key string
	}
	states := map[cell]monoid.State{}
	var cells []cell
	var last time.Duration
	for _, it := range timeOrder(items) {
		c := cell{key: it.Tree.AttrOr(g.KeyAttr, "")}
		if window > 0 {
			c.idx = int64(it.Time / window)
		}
		st := states[c]
		if st == nil {
			st = agg.Zero()
		}
		var val string
		if g.ValueAttr != "" {
			val = it.Tree.AttrOr(g.ValueAttr, "")
		}
		if st.Absorb(val) != nil {
			continue
		}
		if states[c] == nil {
			states[c] = st
			cells = append(cells, c)
		}
		last = max(last, it.Time)
	}
	out := make([]stream.Item, len(cells))
	for i, c := range cells {
		rec := xmltree.Elem("group")
		rec.SetAttr("key", c.key)
		states[c].Final(func(a, v string) { rec.SetAttr(a, v) })
		rec.SetAttr("window", fmt.Sprint(c.idx))
		out[i] = stream.Item{Tree: rec, Time: last}
	}
	return out, nil
}

// evaluable reports whether evalPlan evaluates every operator of plan.
func evaluable(plan *Node) bool {
	ok := true
	plan.Walk(func(n *Node) {
		switch n.Op {
		case OpAlerter, OpDynAlerter, OpSelect, OpUnion, OpJoin, OpRestruct, OpDistinct, OpGroup, OpPublish:
		default:
			ok = false
		}
	})
	return ok
}

func canonSet(items []stream.Item) string {
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = it.Tree.Canonical()
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// genAlert builds a random WS-style alert.
func genAlert(rnd *lcg2) *xmltree.Node {
	n := xmltree.Elem("alert")
	n.SetAttr("callId", fmt.Sprintf("call-%d", rnd.Intn(6)))
	n.SetAttr("callMethod", []string{"GetTemperature", "GetHumidity", "Ping"}[rnd.Intn(3)])
	n.SetAttr("callee", []string{"http://meteo.com", "http://other.com"}[rnd.Intn(2)])
	n.SetAttr("caller", []string{"a.com", "b.com", "c.com"}[rnd.Intn(3)])
	n.SetAttr("callTimestamp", fmt.Sprintf("%d", 100+rnd.Intn(50)))
	n.SetAttr("responseTimestamp", fmt.Sprintf("%d", 100+rnd.Intn(80)))
	return n
}

// TestQuickOptimizationPreservesSemantics is the core compiler property:
// for random alert populations, the naive compiled plan and the optimized
// (pushed-down, placed) plan produce identical result multisets.
func TestQuickOptimizationPreservesSemantics(t *testing.T) {
	subs := []string{
		// The Figure 1 subscription.
		`for $c1 in outCOM(<p>a.com</p><p>b.com</p>),
		 $c2 in inCOM(<p>meteo.com</p>)
		 let $duration := $c1.responseTimestamp - $c1.callTimestamp
		 where $duration > 10 and
		       $c1.callMethod = "GetTemperature" and
		       $c1.callee = "http://meteo.com" and
		       $c1.callId = $c2.callId
		 return <incident><client>{$c1.caller}</client></incident>
		 by publish as channel "q1"`,
		// Single source with mixed conditions and distinct.
		`for $e in inCOM(<p>meteo.com</p>)
		 where $e.callMethod = "Ping" and $e.caller != "c.com"
		 return distinct <seen from="{$e.caller}"/>
		 by publish as channel "q2"`,
		// Cross-source inequality (residual-only join).
		`for $a in outCOM(<p>a.com</p>), $b in outCOM(<p>b.com</p>)
		 where $a.callTimestamp < $b.callTimestamp and $a.callMethod = "Ping"
		 return <pair x="{$a.callId}" y="{$b.callId}"/>
		 by publish as channel "q3"`,
		// Union of three monitored peers, condition on the unioned stream.
		`for $e in outCOM(<p>a.com</p><p>b.com</p><p>c.com</p>)
		 where $e.callee = "http://meteo.com"
		 return $e by publish as channel "q4"`,
		// Equi-join plus a cross-variable LET residual (regression: key
		// extraction must not evaluate LETs spanning both sides).
		`for $a in outCOM(<p>a.com</p>), $b in inCOM(<p>meteo.com</p>)
		 let $lag := $b.callTimestamp - $a.responseTimestamp
		 where $a.callId = $b.callId and $lag > 5
		 return <lagged id="{$a.callId}" lag="{$lag}"/>
		 by publish as channel "q5"`,
		// A template over a union: Π runs in every branch once optimized.
		`for $e in outCOM(<p>a.com</p><p>b.com</p><p>c.com</p>)
		 where $e.callMethod = "Ping"
		 return <hit id="{$e.callId}" to="{$e.callee}"/>
		 by publish as channel "q6"`,
		// Groups over a union: the identity Π under γ and δ is dropped.
		`for $e in outCOM(<p>a.com</p><p>b.com</p><p>c.com</p>)
		 where $e.callMethod = "Ping"
		 return $e group on "caller" window "10s"
		 by publish as channel "q7"`,
		`for $e in outCOM(<p>a.com</p><p>b.com</p><p>c.com</p>)
		 return distinct $e group on "callee" window "10s"
		 by publish as channel "q8"`,
	}
	plans := make([][2]*Node, 0, len(subs))
	for _, src := range subs {
		naive, err := Compile(p2pml.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		optimized := Optimize(naive.Clone(), DefaultOptions("p"))
		plans = append(plans, [2]*Node{naive, optimized})
	}

	f := func(seed int64) bool {
		rnd := newRand2(seed)
		inputs := map[string][]*xmltree.Node{}
		for _, key := range []string{
			"outCOM@a.com", "outCOM@b.com", "outCOM@c.com", "inCOM@meteo.com",
		} {
			for i := 0; i < rnd.Intn(6); i++ {
				inputs[key] = append(inputs[key], genAlert(rnd))
			}
		}
		for i, pair := range plans {
			optimized, err := evalPlan(pair[1], inputs)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := evalPlan(pair[0], inputs)
			if err != nil {
				t.Fatal(err)
			}
			got, want := canonSet(optimized), canonSet(naive)
			if got != want {
				t.Logf("seed=%d sub=%d:\n naive: %s\n optim: %s", seed, i, want, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestUnionSignatureCommutative pins the stream-equivalence extension:
// unions over the same sources in different order denote the same stream.
func TestUnionSignatureCommutative(t *testing.T) {
	a, err := Compile(p2pml.MustParse(
		`for $e in outCOM(<p>a.com</p><p>b.com</p>) return $e by channel X`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(p2pml.MustParse(
		`for $e in outCOM(<p>b.com</p><p>a.com</p>) return $e by channel X`))
	if err != nil {
		t.Fatal(err)
	}
	var ua, ub *Node
	a.Walk(func(n *Node) {
		if n.Op == OpUnion {
			ua = n
		}
	})
	b.Walk(func(n *Node) {
		if n.Op == OpUnion {
			ub = n
		}
	})
	if ua.Signature() != ub.Signature() {
		t.Errorf("union signatures differ:\n%s\n%s", ua.Signature(), ub.Signature())
	}
}

type lcg2 struct{ state uint64 }

func newRand2(seed int64) *lcg2 { return &lcg2{state: uint64(seed)*2862933555777941757 + 3037000493} }

func (l *lcg2) Intn(n int) int {
	l.state = l.state*6364136223846793005 + 1442695040888963407
	if n <= 0 {
		return 0
	}
	return int((l.state >> 33) % uint64(n))
}
