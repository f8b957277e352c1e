package algebra

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"p2pm/internal/p2pml"
	"p2pm/internal/xmltree"
)

// This file implements a reference interpreter for monitoring plans over
// *finite* input sets and uses it for the central semantic property:
// optimization (canonicalization, selection pushdown, placement) never
// changes a plan's results.

// evalPlan evaluates a plan over fixed per-alerter inputs, ignoring
// placement. Joins are evaluated as full cross-products filtered by their
// predicates, so the result is order-insensitive. It fails on an
// operator it does not evaluate (see evaluable) and on a Π that errs.
func evalPlan(n *Node, inputs map[string][]*xmltree.Node) ([]*xmltree.Node, error) {
	var ins [][]*xmltree.Node
	for _, in := range n.Inputs {
		items, err := evalPlan(in, inputs)
		if err != nil {
			return nil, err
		}
		ins = append(ins, items)
	}
	var out []*xmltree.Node
	switch n.Op {
	case OpAlerter:
		return inputs[n.Alerter.Func+"@"+n.Alerter.Peer], nil
	case OpSelect:
		pred := SelectPred(n.Inputs[0].Schema, n.Select)
		for _, it := range ins[0] {
			if pred(it) {
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
				k1, ok1 := lk(l)
				k2, ok2 := rk(r)
				if !ok1 || !ok2 || k1 != k2 {
					continue
				}
				if res != nil && !res(l, r) {
					continue
				}
				out = append(out, combine(l, r))
			}
		}
	case OpRestruct:
		apply := RestructApply(n.Inputs[0].Schema, n.Restruct)
		for _, it := range ins[0] {
			tree, err := apply(it)
			if err != nil {
				return nil, fmt.Errorf("restructure: %w", err)
			}
			if tree != nil {
				out = append(out, tree)
			}
		}
	case OpDistinct:
		seen := map[string]bool{}
		for _, it := range ins[0] {
			key := it.Canonical()
			if !seen[key] {
				seen[key] = true
				out = append(out, it)
			}
		}
	case OpGroup:
		// One window over all inputs: a <group key count/> per key, in
		// first-seen order.
		counts := map[string]int{}
		var keys []string
		for _, it := range ins[0] {
			key := it.AttrOr(n.Group.KeyAttr, "")
			if counts[key] == 0 {
				keys = append(keys, key)
			}
			counts[key]++
		}
		for _, key := range keys {
			g := xmltree.Elem("group")
			g.SetAttr("key", key)
			g.SetAttr("count", fmt.Sprint(counts[key]))
			out = append(out, g)
		}
	case OpPublish:
		return ins[0], nil
	default:
		return nil, fmt.Errorf("interpreter: unsupported op %v", n.Op)
	}
	return out, nil
}

// evaluable reports whether evalPlan evaluates every operator of plan.
func evaluable(plan *Node) bool {
	ok := true
	plan.Walk(func(n *Node) {
		switch n.Op {
		case OpAlerter, OpSelect, OpUnion, OpJoin, OpRestruct, OpDistinct, OpGroup, OpPublish:
		default:
			ok = false
		}
	})
	return ok
}

func canonSet(items []*xmltree.Node) string {
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = it.Canonical()
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
