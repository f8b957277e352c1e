package algebra

import (
	"math/rand"
	"testing"
	"unsafe"

	"p2pm/internal/p2pml"
	"p2pm/internal/xmltree"
)

// frameSub compiles, without optimisation, to Π(σ(⋈(in@m1, in@m2))): the
// join's residual and Π both need a LET over the two sides, and σ reads a
// tuple.
const frameSub = `for $a in inCOM(<p>m1</p>), $b in inCOM(<p>m2</p>)
let $gap := $b.t - $a.t
where $gap > 2 and $a.k = $b.k and $a.m = "Q"
return <pair gap="{$gap}" k="{$a.k}">{$b.m}</pair> by channel X`

// TestReusedFrameMatchesFreshFrame: the compiled σ, Π, join keys and join
// residual each bind every item into the one frame they keep. Over items
// whose attributes come and go — so a LET is bound for one item and not
// the next — each answers exactly what a closure compiled for that item
// alone answers: nothing of one item is visible to the next.
func TestReusedFrameMatchesFreshFrame(t *testing.T) {
	plan, err := Compile(p2pml.MustParse(frameSub))
	if err != nil {
		t.Fatal(err)
	}
	pi := plan.Inputs[0]
	sigma := pi.Inputs[0]
	join := sigma.Inputs[0]
	if pi.Op != OpRestruct || sigma.Op != OpSelect || join.Op != OpJoin {
		t.Fatalf("plan shape:\n%s", plan.Tree())
	}
	ls, rs := join.Inputs[0].Schema, join.Inputs[1].Schema
	pred := SelectPred(sigma.Inputs[0].Schema, sigma.Select)
	apply := RestructApply(pi.Inputs[0].Schema, pi.Restruct)
	lk, rk := JoinKeys(ls, rs, join.Join)
	res := JoinResidual(ls, rs, join.Join)
	combine := JoinCombine(ls, rs)

	rng := rand.New(rand.NewSource(3))
	pick := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	item := func() *xmltree.Node {
		n := xmltree.Elem("alert")
		for _, a := range [][]string{{"t", "1", "5", "9.5", "x"}, {"k", "1", "2"}, {"m", "Q", "R"}} {
			if v := pick(append(a[1:], "")...); v != "" {
				n.SetAttr(a[0], v)
			}
		}
		return n
	}
	render := func(n *xmltree.Node) string {
		if n == nil {
			return "<nil>"
		}
		return n.String()
	}
	for i := 0; i < 5000; i++ {
		l, r := item(), item()
		freshL, freshR := JoinKeys(ls, rs, join.Join)
		for _, k := range []struct {
			got, want func(*xmltree.Node) (string, bool)
			in        *xmltree.Node
		}{{lk, freshL, l}, {rk, freshR, r}} {
			g, gok := k.got(k.in)
			w, wok := k.want(k.in)
			if g != w || gok != wok {
				t.Fatalf("item %d: key of %s = %q/%v, fresh %q/%v", i, k.in, g, gok, w, wok)
			}
		}
		if g, w := res(l, r), JoinResidual(ls, rs, join.Join)(l, r); g != w {
			t.Fatalf("item %d: residual(%s, %s) = %v, fresh %v", i, l, r, g, w)
		}
		tuple := combine(l, r)
		if g, w := pred(tuple), SelectPred(sigma.Inputs[0].Schema, sigma.Select)(tuple); g != w {
			t.Fatalf("item %d: σ(%s) = %v, fresh %v", i, tuple, g, w)
		}
		out, err := apply(tuple)
		want, werr := RestructApply(pi.Inputs[0].Schema, pi.Restruct)(tuple)
		if render(out) != render(want) || (err == nil) != (werr == nil) {
			t.Fatalf("item %d: Π(%s) = %s, %v; fresh %s, %v", i, tuple, render(out), err, render(want), werr)
		}
	}
}

// TestEvaluationAllocatesOnlyOutput: pipeline-sim's σ and Π evaluate an
// alert without allocating; what Π allocates is the <hit> it emits — one
// Builder's node and attribute chunks — whose id is the alert's callId
// string itself, not a copy. A LET's arithmetic that is only compared is
// never formatted.
func TestEvaluationAllocatesOnlyOutput(t *testing.T) {
	ops := func(src string) (pred func(*xmltree.Node) bool, apply func(*xmltree.Node) (*xmltree.Node, error)) {
		plan, err := Compile(p2pml.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		plan.Walk(func(n *Node) {
			switch n.Op {
			case OpSelect:
				pred = SelectPred(n.Inputs[0].Schema, n.Select)
			case OpRestruct:
				apply = RestructApply(n.Inputs[0].Schema, n.Restruct)
			}
		})
		return pred, apply
	}
	in := xmltree.MustParse(`<alert type="ws-in" callId="call-7" callMethod="Q" caller="http://c0" callee="http://s0" callTimestamp="1.000" responseTimestamp="1.250"/>`)

	pred, apply := ops(`for $e in inCOM(<p>s0</p>) where $e.callMethod = "Q" return <hit id="{$e.callId}"/> by publish as channel "hits"`)
	if !pred(in) {
		t.Fatal("σ rejects the alert")
	}
	if a := testing.AllocsPerRun(200, func() { pred(in) }); a != 0 {
		t.Errorf("σ allocates %.0f per item, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { apply(in) }); a != 2 { //nolint:errcheck // a valid alert
		t.Errorf("Π allocates %.0f per item, want 2 (the <hit>'s node and attribute chunks)", a)
	}
	out, err := apply(in)
	if err != nil || out.String() != `<hit id="call-7"/>` {
		t.Fatalf("Π = %v, %v", out, err)
	}
	if unsafe.StringData(out.AttrOr("id", "")) != unsafe.StringData(in.AttrOr("callId", "")) {
		t.Error("the hit's id is a copy of the alert's callId")
	}

	slow, _ := ops(`for $e in inCOM(<p>s0</p>) let $d := $e.responseTimestamp - $e.callTimestamp where $d > 0.2 return $e by channel X`)
	if !slow(in) {
		t.Fatal("σ over a LET rejects a 250 ms call")
	}
	if a := testing.AllocsPerRun(200, func() { slow(in) }); a != 0 {
		t.Errorf("σ over a LET allocates %.0f per item, want 0", a)
	}
}
