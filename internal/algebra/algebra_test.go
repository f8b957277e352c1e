package algebra

import (
	"strings"
	"testing"

	"p2pm/internal/p2pml"
	"p2pm/internal/xmltree"
)

const figure1 = `for $c1 in outCOM(<p>http://a.com</p><p>http://b.com</p>),
    $c2 in inCOM(<p>http://meteo.com</p>)
let $duration := $c1.responseTimestamp - $c1.callTimestamp
where $duration > 10 and
      $c1.callMethod = "GetTemperature" and
      $c1.callee = "http://meteo.com" and
      $c1.callId = $c2.callId
return <incident type="slowAnswer">
         <client>{$c1.caller}</client>
         <tstamp>{$c2.callTimestamp}</tstamp>
       </incident>
by publish as channel "alertQoS";`

func compileFigure1(t *testing.T) *Node {
	t.Helper()
	plan, err := Compile(p2pml.MustParse(figure1))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestCompileFigure1NaiveShape(t *testing.T) {
	plan := compileFigure1(t)
	// publisher(Π(σ(⋈(∪(out@a, out@b), in@meteo)))) with all
	// single-variable conditions still in the top σ.
	if plan.Op != OpPublish {
		t.Fatalf("root = %v", plan.Op)
	}
	pi := plan.Inputs[0]
	if pi.Op != OpRestruct || pi.Restruct.Template == nil {
		t.Fatalf("below publisher: %v", pi.Op)
	}
	sigma := pi.Inputs[0]
	if sigma.Op != OpSelect || len(sigma.Select.Conds) != 3 {
		t.Fatalf("top σ: %v conds=%d", sigma.Op, len(sigma.Select.Conds))
	}
	if len(sigma.Select.Lets) != 1 || sigma.Select.Lets[0].Var != "duration" {
		t.Fatalf("σ lets = %+v", sigma.Select.Lets)
	}
	join := sigma.Inputs[0]
	if join.Op != OpJoin {
		t.Fatalf("join missing: %v", join.Op)
	}
	if join.Join.LeftKey == nil || join.Join.LeftKey.String() != "$c1.callId" ||
		join.Join.RightKey.String() != "$c2.callId" {
		t.Fatalf("join keys: %+v", join.Join)
	}
	if len(join.Schema) != 2 || join.Schema[0] != "c1" || join.Schema[1] != "c2" {
		t.Fatalf("join schema = %v", join.Schema)
	}
	union := join.Inputs[0]
	if union.Op != OpUnion || len(union.Inputs) != 2 {
		t.Fatalf("union: %v", union.Op)
	}
	if union.Inputs[0].Alerter.Peer != "a.com" || union.Inputs[1].Alerter.Peer != "b.com" {
		t.Fatalf("alerter peers: %s, %s", union.Inputs[0].Alerter.Peer, union.Inputs[1].Alerter.Peer)
	}
	right := join.Inputs[1]
	if right.Op != OpAlerter || right.Alerter.Kind != "ws-in" || right.Alerter.Peer != "meteo.com" {
		t.Fatalf("right source: %+v", right.Alerter)
	}
}

// TestOptimizeFigure4Placement checks that optimization reproduces the
// distributed plan of Figure 4: selections pushed to a.com and b.com, the
// union at b.com, the join and Π at meteo.com, the publisher at p.
func TestOptimizeFigure4Placement(t *testing.T) {
	plan := Optimize(compileFigure1(t), DefaultOptions("p"))
	got := plan.String()
	want := "publisher@p(Π@meteo.com(⋈@meteo.com(∪@b.com(σ@a.com(out@a.com), σ@b.com(out@b.com)), in@meteo.com)))"
	if got != want {
		t.Errorf("plan =\n  %s\nwant\n  %s", got, want)
	}
	// No operator may remain generic after optimization.
	plan.Walk(func(n *Node) {
		if n.Peer == AnyPeer {
			t.Errorf("operator %s left @any", n.Label())
		}
	})
	// Each pushed σ carries all three c1 conditions and the LET binding.
	plan.Walk(func(n *Node) {
		if n.Op == OpSelect {
			if len(n.Select.Conds) != 3 {
				t.Errorf("σ@%s has %d conds, want 3", n.Peer, len(n.Select.Conds))
			}
			if len(n.Select.Lets) != 1 {
				t.Errorf("σ@%s lost the LET binding", n.Peer)
			}
		}
	})
}

func TestOptimizeWithoutPushdownKeepsTopSelect(t *testing.T) {
	plan := Optimize(compileFigure1(t), Options{SubscriberPeer: "p", Pushdown: false})
	pi := plan.Inputs[0]
	sigma := pi.Inputs[0]
	if sigma.Op != OpSelect || len(sigma.Select.Conds) != 3 {
		t.Fatalf("expected top σ preserved, got %s", plan.Tree())
	}
	// Placement still concrete: σ runs where the join runs.
	if sigma.Peer != "meteo.com" {
		t.Errorf("σ peer = %s", sigma.Peer)
	}
}

func TestCompileSingleSourceNoJoin(t *testing.T) {
	plan, err := Compile(p2pml.MustParse(
		`for $e in inCOM(<p>m.com</p>) where $e.callMethod = "Q" return $e by channel X`))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Op != OpPublish || plan.Publish.ChannelID != "X" {
		t.Fatalf("publish = %+v", plan.Publish)
	}
	pi := plan.Inputs[0]
	if pi.Restruct.Expr == nil {
		t.Fatal("bare return should compile to an expression Π")
	}
	sigma := pi.Inputs[0]
	if sigma.Op != OpSelect || sigma.Inputs[0].Op != OpAlerter {
		t.Fatalf("shape: %s", plan.Tree())
	}
	opt := Optimize(plan, DefaultOptions("mgr"))
	if got := opt.String(); got != "publisher@mgr(Π@m.com(σ@m.com(in@m.com)))" {
		t.Errorf("optimized = %s", got)
	}
}

func TestCompileDistinct(t *testing.T) {
	plan, err := Compile(p2pml.MustParse(
		`for $e in inCOM(<p>m.com</p>) return distinct <a>{$e.caller}</a> by channel X`))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Inputs[0].Op != OpDistinct {
		t.Fatalf("distinct missing: %s", plan.Tree())
	}
}

func TestCompileNestedSource(t *testing.T) {
	plan, err := Compile(p2pml.MustParse(
		`for $x in ( for $y in inCOM(<p>m.com</p>) where $y.callMethod = "Q" return <q>{$y.caller}</q> )
		 where $x/q
		 return $x by channel Out`))
	if err != nil {
		t.Fatal(err)
	}
	// The nested plan's Π feeds the outer σ; its schema is the outer var.
	var innerPi *Node
	plan.Walk(func(n *Node) {
		if n.Op == OpRestruct && n.Restruct.Template != nil {
			innerPi = n
		}
	})
	if innerPi == nil || len(innerPi.Schema) != 1 || innerPi.Schema[0] != "x" {
		t.Fatalf("inner Π schema: %+v", innerPi)
	}
}

func TestCompileChannelSource(t *testing.T) {
	plan, err := Compile(p2pml.MustParse(
		`for $x in channel("alertQoS@meteo.com") return $x by file "f"`))
	if err != nil {
		t.Fatal(err)
	}
	var ch *Node
	plan.Walk(func(n *Node) {
		if n.Op == OpChannelIn {
			ch = n
		}
	})
	if ch == nil || ch.Channel.StreamID != "alertQoS" || ch.Channel.PeerID != "meteo.com" {
		t.Fatalf("channel node: %+v", ch)
	}
	opt := Optimize(plan, DefaultOptions("mgr"))
	if ch.Peer != "meteo.com" {
		t.Errorf("channel input peer = %s", ch.Peer)
	}
	_ = opt
}

func TestCompileDynamicMembership(t *testing.T) {
	plan, err := Compile(p2pml.MustParse(
		`for $j in areRegistered(<p>s.com</p>)
		 for $c in inCOM($j)
		 return $c by channel W`))
	if err != nil {
		t.Fatal(err)
	}
	var dyn *Node
	plan.Walk(func(n *Node) {
		if n.Op == OpDynAlerter {
			dyn = n
		}
	})
	if dyn == nil {
		t.Fatalf("no DynAlerter: %s", plan.Tree())
	}
	if dyn.Inputs[0].Op != OpAlerter || dyn.Inputs[0].Alerter.Kind != "membership" {
		t.Fatalf("driver: %s", plan.Tree())
	}
	Optimize(plan, DefaultOptions("mgr"))
	if dyn.Peer != "mgr" {
		t.Errorf("dyn peer = %s", dyn.Peer)
	}
}

func TestSignatureStableAcrossConditionOrder(t *testing.T) {
	a, err := Compile(p2pml.MustParse(
		`for $e in inCOM(<p>m</p>) where $e.a = "1" and $e.b = "2" return $e by channel X`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(p2pml.MustParse(
		`for $e in inCOM(<p>m</p>) where $e.b = "2" and $e.a = "1" return $e by channel X`))
	if err != nil {
		t.Fatal(err)
	}
	sigA := a.Inputs[0].Inputs[0].Signature() // the σ nodes
	sigB := b.Inputs[0].Inputs[0].Signature()
	if sigA != sigB {
		t.Errorf("signatures differ:\n%s\n%s", sigA, sigB)
	}
}

func TestSignatureDiffersAcrossPeers(t *testing.T) {
	a, _ := Compile(p2pml.MustParse(`for $e in inCOM(<p>m1</p>) return $e by channel X`))
	b, _ := Compile(p2pml.MustParse(`for $e in inCOM(<p>m2</p>) return $e by channel X`))
	if a.Inputs[0].Signature() == b.Inputs[0].Signature() {
		t.Error("different monitored peers must give different signatures")
	}
}

func TestSignaturePlacementIndependent(t *testing.T) {
	p1 := compileFigure1(t)
	p2 := Optimize(compileFigure1(t), DefaultOptions("p"))
	// The join node's signature must be identical before and after
	// optimization-placement... but pushdown changes the tree shape, so
	// compare the alerter signatures which are never rewritten.
	var a1, a2 string
	p1.Walk(func(n *Node) {
		if n.Op == OpAlerter && n.Alerter.Peer == "a.com" {
			a1 = n.Signature()
		}
	})
	p2.Walk(func(n *Node) {
		if n.Op == OpAlerter && n.Alerter.Peer == "a.com" {
			a2 = n.Signature()
		}
	})
	if a1 == "" || a1 != a2 {
		t.Errorf("alerter signatures: %q vs %q", a1, a2)
	}
}

func TestTupleRoundTrip(t *testing.T) {
	c1 := xmltree.MustParse(`<alert callId="7" caller="a.com"/>`)
	c2 := xmltree.MustParse(`<alert callId="7" callTimestamp="9.5"/>`)
	tuple := BuildTuple([]string{"c1", "c2"}, []*xmltree.Node{c1, c2})
	env, err := extractEnv([]string{"c1", "c2"}, tuple)
	if err != nil {
		t.Fatal(err)
	}
	if envTree(env, "c1").AttrOr("caller", "") != "a.com" {
		t.Error("c1 binding lost")
	}
	if envTree(env, "c2").AttrOr("callTimestamp", "") != "9.5" {
		t.Error("c2 binding lost")
	}
}

func TestExtractEnvBareTree(t *testing.T) {
	tree := xmltree.MustParse(`<alert x="1"/>`)
	env, err := extractEnv([]string{"e"}, tree)
	if err != nil {
		t.Fatal(err)
	}
	if envTree(env, "e") != tree {
		t.Error("bare tree should bind directly")
	}
}

func TestExtractEnvErrors(t *testing.T) {
	if _, err := extractEnv([]string{"a", "b"}, xmltree.Elem("notuple")); err == nil {
		t.Error("non-tuple for multi-var schema accepted")
	}
	tuple := BuildTuple([]string{"a"}, []*xmltree.Node{xmltree.Elem("x")})
	if _, err := extractEnv([]string{"a", "b"}, tuple); err == nil {
		t.Error("missing variable accepted")
	}
}

func TestMergeTuplesMixed(t *testing.T) {
	l := xmltree.MustParse(`<alert id="1"/>`)
	rTuple := BuildTuple([]string{"b", "c"}, []*xmltree.Node{xmltree.Elem("x"), xmltree.Elem("y")})
	merged := MergeTuples([]string{"a"}, l, []string{"b", "c"}, rTuple)
	env, err := extractEnv([]string{"a", "b", "c"}, merged)
	if err != nil {
		t.Fatal(err)
	}
	if envTree(env, "a").AttrOr("id", "") != "1" || envTree(env, "c").Label != "y" {
		t.Errorf("merged = %s", merged)
	}
}

func TestSelectPredEndToEnd(t *testing.T) {
	sub := p2pml.MustParse(
		`for $e in outCOM(<p>a.com</p>)
		 let $d := $e.responseTimestamp - $e.callTimestamp
		 where $d > 10 and $e.callMethod = "GetTemperature"
		 return $e by channel X`)
	plan, err := Compile(sub)
	if err != nil {
		t.Fatal(err)
	}
	var sigma *Node
	plan.Walk(func(n *Node) {
		if n.Op == OpSelect {
			sigma = n
		}
	})
	pred := SelectPred(sigma.Inputs[0].Schema, sigma.Select)
	slow := xmltree.MustParse(`<alert callMethod="GetTemperature" callTimestamp="5" responseTimestamp="20"/>`)
	fast := xmltree.MustParse(`<alert callMethod="GetTemperature" callTimestamp="5" responseTimestamp="6"/>`)
	wrong := xmltree.MustParse(`<alert callMethod="Other" callTimestamp="5" responseTimestamp="20"/>`)
	noattr := xmltree.MustParse(`<alert/>`)
	if !pred(slow) {
		t.Error("slow call should pass")
	}
	if pred(fast) || pred(wrong) || pred(noattr) {
		t.Error("non-matching alerts passed")
	}
}

func TestJoinKeysAndCombine(t *testing.T) {
	plan := compileFigure1(t)
	var join *Node
	plan.Walk(func(n *Node) {
		if n.Op == OpJoin {
			join = n
		}
	})
	lk, rk := JoinKeys(join.Inputs[0].Schema, join.Inputs[1].Schema, join.Join)
	l := xmltree.MustParse(`<alert callId="42" caller="a.com"/>`)
	r := xmltree.MustParse(`<alert callId="42" callTimestamp="1.5"/>`)
	k1, ok1 := lk(l)
	k2, ok2 := rk(r)
	if !ok1 || !ok2 || k1 != "42" || k1 != k2 {
		t.Fatalf("keys: %q/%v %q/%v", k1, ok1, k2, ok2)
	}
	if _, ok := lk(xmltree.Elem("alert")); ok {
		t.Error("missing key attr should report !ok")
	}
	combined := JoinCombine(join.Inputs[0].Schema, join.Inputs[1].Schema)(l, r)
	env, err := extractEnv(join.Schema, combined)
	if err != nil {
		t.Fatal(err)
	}
	if envTree(env, "c1").AttrOr("caller", "") != "a.com" {
		t.Errorf("combined = %s", combined)
	}
}

func TestRestructApplyTemplate(t *testing.T) {
	plan := compileFigure1(t)
	pi := plan.Inputs[0]
	apply := RestructApply(pi.Inputs[0].Schema, pi.Restruct)
	tuple := BuildTuple([]string{"c1", "c2"}, []*xmltree.Node{
		xmltree.MustParse(`<alert caller="a.com"/>`),
		xmltree.MustParse(`<alert callTimestamp="99.5"/>`),
	})
	out, err := apply(tuple)
	if err != nil {
		t.Fatal(err)
	}
	if out.Label != "incident" || out.Child("client").InnerText() != "a.com" ||
		out.Child("tstamp").InnerText() != "99.5" {
		t.Errorf("out = %s", out)
	}
}

func TestRestructApplyBareExprClones(t *testing.T) {
	sub := p2pml.MustParse(`for $e in inCOM(<p>m</p>) return $e by channel X`)
	plan, _ := Compile(sub)
	pi := plan.Inputs[0]
	apply := RestructApply(pi.Inputs[0].Schema, pi.Restruct)
	in := xmltree.MustParse(`<alert x="1"/>`)
	out, err := apply(in)
	if err != nil {
		t.Fatal(err)
	}
	if out == in {
		t.Error("Π must not alias its input")
	}
	if !xmltree.Equal(out, in) {
		t.Errorf("out = %s", out)
	}
}

func TestPlanRenderingHelpers(t *testing.T) {
	plan := Optimize(compileFigure1(t), DefaultOptions("p"))
	tree := plan.Tree()
	for _, want := range []string{"publisher", "⋈", "∪", "σ[", "@meteo.com"} {
		if !strings.Contains(tree, want) {
			t.Errorf("Tree() missing %q:\n%s", want, tree)
		}
	}
	if plan.Count() != 9 {
		t.Errorf("Count = %d, want 9 (pub,Π,⋈,∪,2×σ+2×alerter+1×in)", plan.Count())
	}
	cl := plan.Clone()
	if cl.String() != plan.String() {
		t.Error("clone differs")
	}
	// Mutating the clone must not affect the original.
	cl.Inputs[0].Peer = "elsewhere"
	if plan.Inputs[0].Peer == "elsewhere" {
		t.Error("clone shares nodes")
	}
}

func TestCrossJoinWithoutEquiKey(t *testing.T) {
	sub := p2pml.MustParse(
		`for $a in inCOM(<p>m1</p>), $b in inCOM(<p>m2</p>)
		 where $a.t < $b.t
		 return <pair/> by channel X`)
	plan, err := Compile(sub)
	if err != nil {
		t.Fatal(err)
	}
	var join *Node
	plan.Walk(func(n *Node) {
		if n.Op == OpJoin {
			join = n
		}
	})
	if join.Join.LeftKey != nil {
		t.Error("inequality should not become an equi key")
	}
	if len(join.Join.Residual) != 1 {
		t.Fatalf("residual = %+v", join.Join.Residual)
	}
	res := JoinResidual(join.Inputs[0].Schema, join.Inputs[1].Schema, join.Join)
	l := xmltree.MustParse(`<alert t="1"/>`)
	r := xmltree.MustParse(`<alert t="5"/>`)
	if !res(l, r) || res(r, l) {
		t.Error("residual evaluation wrong")
	}
}

// extractEnv binds an item into a fresh frame.
func extractEnv(schema []string, item *xmltree.Node) (*p2pml.Env, error) {
	env := p2pml.NewEnv()
	return env, bindItem(env, schema, item)
}

func envTree(env *p2pml.Env, v string) *xmltree.Node {
	tree, _ := env.Tree(v)
	return tree
}
