package algebra

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

	"p2pm/internal/p2pml"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// refDesc, refNormalizedConds and refSignatureWith are the fmt-based
// renderings SignatureWith and GroupSpec.Ident replaced, kept verbatim
// as the reference: signatures are DHT keys, so a rewrite must produce
// the same bytes. What the reference leaves out — LETs, a ⋈'s variables,
// alerter arguments and a dynamic set's function — is pinned by
// TestSignatureNamesItsInputs and searched by FuzzSignature instead.
func refDesc(g *GroupSpec) string {
	if g.Fn == "" || g.Fn == "count" {
		return fmt.Sprintf("%s/%s", g.KeyAttr, g.Window)
	}
	return fmt.Sprintf("%s(%s):%s/%s", g.Fn, g.ValueAttr, g.KeyAttr, g.Window)
}

func refNormalizedConds(conds []p2pml.Condition) string {
	parts := make([]string, len(conds))
	for i, c := range conds {
		parts[i] = c.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, " and ")
}

func refSignatureWith(n *Node, inputSigs []string) string {
	var b strings.Builder
	switch n.Op {
	case OpAlerter:
		fmt.Fprintf(&b, "%s(%s)", n.Alerter.Func, n.Alerter.Peer)
		return b.String()
	case OpChannelIn:
		fmt.Fprintf(&b, "chan(%s)", n.Channel.String())
		return b.String()
	case OpUnion:
		inputSigs = append([]string(nil), inputSigs...)
		sort.Strings(inputSigs)
	}
	b.WriteString(n.Op.String())
	b.WriteString("{")
	switch n.Op {
	case OpSelect:
		b.WriteString(refNormalizedConds(n.Select.Conds))
	case OpJoin:
		if n.Join.LeftKey != nil {
			fmt.Fprintf(&b, "%s=%s", n.Join.LeftKey.String(), n.Join.RightKey.String())
		}
		if len(n.Join.Residual) > 0 {
			b.WriteString(";")
			b.WriteString(refNormalizedConds(n.Join.Residual))
		}
	case OpRestruct:
		if n.Restruct.Expr != nil {
			b.WriteString(n.Restruct.Expr.String())
		} else {
			b.WriteString(n.Restruct.Template.String())
		}
	case OpGroup, OpPartialAgg:
		b.WriteString(refDesc(n.Group))
	case OpMergeAgg:
		fmt.Fprintf(&b, "%s/final=%t", refDesc(n.Group), n.Group.Final)
	}
	b.WriteString("}(")
	for i, sig := range inputSigs {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(sig)
	}
	b.WriteString(")")
	return b.String()
}

// TestSignatureWithMatchesReference compares the two renderings over
// every operator kind but ⋈ and the dynamic alerter set, which sign more
// than the reference: compiled plans for the specs only the compiler
// builds (σ, Π by template and by expression, distinct), hand-built nodes
// for the rest, each with empty, single, long and reordered input
// signatures. A σ or Π with a LET is left out for the same reason.
func TestSignatureWithMatchesReference(t *testing.T) {
	var nodes []*Node
	for _, src := range []string{
		figure1,
		`for $c1 in outCOM(<p>a</p>), $c2 in inCOM(<p>b</p>)
		 where $c1.callId = $c2.callId and $c1.caller != $c2.callee and $c2.fault != ""
		 return $c1 by channel J`,
		`for $e in inCOM(<p>m.com</p>) return distinct <a>{$e.caller}</a> by channel X`,
		`for $j in areRegistered(<p>s.com</p>) for $c in inCOM($j) return $c by channel W`,
		`for $e in inCOM(<p>s0</p><p>s1</p>) return $e group on "callee" window "24s" by publish as channel "g"`,
	} {
		for _, optimize := range []bool{false, true} {
			plan, err := Compile(p2pml.MustParse(src))
			if err != nil {
				t.Fatal(err)
			}
			if optimize {
				plan = Optimize(plan, DefaultOptions("mgr"))
			}
			plan.Walk(func(n *Node) { nodes = append(nodes, n) })
		}
	}
	for _, g := range []*GroupSpec{
		{KeyAttr: "callee", Window: "24s"},
		{KeyAttr: "caller", Window: "1m0s", Fn: "count"},
		{KeyAttr: "caller", Window: "60s", Fn: "avg", ValueAttr: "latency"},
		{KeyAttr: "", Window: "", Fn: "freq", ValueAttr: "call%Method"},
	} {
		final, partial := *g, *g
		final.Final = true
		nodes = append(nodes,
			&Node{Op: OpGroup, Group: g},
			&Node{Op: OpPartialAgg, Group: &partial},
			&Node{Op: OpMergeAgg, Group: &partial},
			&Node{Op: OpMergeAgg, Group: &final})
	}
	nodes = append(nodes,
		NewAlerter("inCOM", "ws-in", "http://meteo.com", "e", nil),
		NewAlerter("", "", "", "e", nil),
		&Node{Op: OpChannelIn, Channel: stream.Ref{PeerID: "p1", StreamID: "s10"}},
		&Node{Op: OpChannelIn, Channel: stream.Ref{PeerID: "p1", StreamID: "s1"}, Origin: stream.Ref{PeerID: "p2", StreamID: "s7"}},
		&Node{Op: OpChannelIn},
		&Node{Op: OpUnion}, &Node{Op: OpDistinct}, &Node{Op: OpPublish, Publish: &PublishSpec{ChannelID: "c"}})

	long := strings.Repeat("Select{$e.callMethod = \"Q\"}(inCOM(s0)),", 40)
	inputSets := [][]string{
		nil,
		{""},
		{"inCOM(s0)"},
		{"outCOM(b)", "inCOM(a)"},
		{"inCOM(s3)", "inCOM(s1)", "inCOM(s2)", "inCOM(s10)", "chan(s1@p)"},
		{"inCOM(s10)", "chan(s1@p)", "inCOM(s2)", "inCOM(s3)", "inCOM(s1)"}, // the same, reordered
		{long, "x", long},
	}
	seen := map[OpKind]bool{}
	for _, n := range nodes {
		seen[n.Op] = true
		if signsMore(n) {
			continue
		}
		for _, in := range inputSets {
			keep := append([]string(nil), in...)
			got, want := n.SignatureWith(in), refSignatureWith(n, append([]string(nil), in...))
			if got != want {
				t.Errorf("%s over %q:\n got  %s\n want %s", n.Op, in, got, want)
			}
			if fmt.Sprint(in) != fmt.Sprint(keep) {
				t.Errorf("%s: SignatureWith reordered its caller's slice %q", n.Op, keep)
			}
		}
		if n.Group != nil {
			if got, want := n.Group.Ident(), refDesc(n.Group); got != want {
				t.Errorf("Ident() = %q, want %q", got, want)
			}
		}
	}
	for op := range opNames {
		if !seen[op] {
			t.Errorf("no %s node in the comparison", op)
		}
	}
	// Reordered unions are one stream; other operators keep input order.
	union, join := &Node{Op: OpUnion}, &Node{Op: OpJoin, Join: &JoinSpec{}, Schema: []string{"a", "b"}}
	if union.SignatureWith(inputSets[4]) != union.SignatureWith(inputSets[5]) {
		t.Error("reordered unions sign differently")
	}
	if join.SignatureWith(inputSets[3]) == join.SignatureWith([]string{"inCOM(a)", "outCOM(b)"}) {
		t.Error("join signature ignores input order")
	}
}

// signsMore reports whether n's signature names what the reference
// leaves out.
func signsMore(n *Node) bool {
	switch n.Op {
	case OpJoin, OpDynAlerter:
		return true
	case OpSelect:
		return len(n.Select.Lets) > 0
	case OpRestruct:
		return len(n.Restruct.Lets) > 0
	case OpAlerter:
		return len(n.Alerter.Args) > 0
	}
	return false
}

// TestSignatureNamesItsInputs pins what a signature adds to the
// reference rendering, one case per defect it closed: each pair below
// signed alike and computed different streams.
func TestSignatureNamesItsInputs(t *testing.T) {
	sig := func(src string, op OpKind) string {
		t.Helper()
		plan, err := Compile(p2pml.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		var found *Node
		plan.Walk(func(n *Node) {
			if n.Op == op && found == nil {
				found = n
			}
		})
		if found == nil {
			t.Fatalf("no %s in %s", op, plan.Tree())
		}
		return found.Signature()
	}
	for _, c := range []struct {
		src  string
		op   OpKind
		want string
	}{
		{`for $e in inCOM(<p>src</p>) let $d := $e.r - $e.c where $d > 0 return $e by channel A`, OpSelect,
			`Select{($e.r - $e.c) > 0}(inCOM(src))`},
		{`for $e in inCOM(<p>src</p>) let $d := $e.c - $e.r where $d > 0 return $e by channel B`, OpSelect,
			`Select{($e.c - $e.r) > 0}(inCOM(src))`},
		{`for $e in inCOM(<p>src</p>) let $d := $e.r let $dd := $d * 2 where $dd > 0 return $e by channel B`, OpSelect,
			`Select{(($e.r) * 2) > 0}(inCOM(src))`},
		{`for $e in inCOM(<p>src</p>) where ($e.r - $e.c) * 2 > 1 return $e by channel A`, OpSelect,
			`Select{($e.r - $e.c) * 2 > 1}(inCOM(src))`},
		{`for $e in inCOM(<p>src</p>) where $e.r - $e.c * 2 > 1 return $e by channel B`, OpSelect,
			`Select{$e.r - $e.c * 2 > 1}(inCOM(src))`},
		{`for $a in outCOM(<p>x</p>), $b in inCOM(<p>y</p>) return <r/> by channel A`, OpJoin,
			`Join{a b:}(outCOM(x),inCOM(y))`},
		{`for $c in outCOM(<p>x</p>), $d in inCOM(<p>y</p>) return <r/> by channel B`, OpJoin,
			`Join{c d:}(outCOM(x),inCOM(y))`},
		{`for $a in outCOM(<p>x</p>), $b in inCOM(<p>y</p>) let $k := $b.callId where $a.callId = $k and $a.t < $b.t return <r/> by channel C`, OpJoin,
			`Join{a b:$a.callId=($b.callId);$a.t < $b.t}(outCOM(x),inCOM(y))`},
		{`for $r in rssCOM(<p>a</p><feed url="x"/>) return $r by channel A`, OpAlerter,
			`rssCOM(a <feed url="x"></feed>)`},
		{`for $r in rssCOM(<p>a</p><feed url="y"/>) return $r by channel B`, OpAlerter,
			`rssCOM(a <feed url="y"></feed>)`},
		{`for $j in areRegistered(<p>s</p>) for $c in inCOM($j) return $c by channel A`, OpDynAlerter,
			`DynAlerter{inCOM}(areRegistered(s))`},
		{`for $j in areRegistered(<p>s</p>) for $c in outCOM($j) return $c by channel B`, OpDynAlerter,
			`DynAlerter{outCOM}(areRegistered(s))`},
		{`for $e in inCOM(<p>src</p>) let $d := $e.r - $e.c return <s d="{$d}"/> by channel A`, OpRestruct,
			`Restructure{<s d="{$d}"/> let $d := $e.r - $e.c}(inCOM(src))`},
		{`for $e in inCOM(<p>src</p>) let $d := $e.r let $x := $d + 1 return $x by channel A`, OpRestruct,
			`Restructure{$x let $d := $e.r let $x := ($e.r) + 1}(inCOM(src))`},
	} {
		if got := sig(c.src, c.op); got != c.want {
			t.Errorf("%s\n got  %s\n want %s", c.src, got, c.want)
		}
	}
}

// signaturePairs seed FuzzSignature: pairs of subscriptions whose plans
// share a sub-plan's signature, or a filter's input, and differ in what
// that signature must name — each a mutation the oracle catches.
var signaturePairs = [][2]string{
	// LETs: σ{$d > 0} over one source, $d defined two ways.
	{`for $e in inCOM(<p>src</p>) let $d := $e.responseTimestamp - $e.callTimestamp where $d > 0 return $e by channel A`,
		`for $e in inCOM(<p>src</p>) let $d := $e.callTimestamp - $e.responseTimestamp where $d > 0 return $e by channel B`},
	// The variables of a condition-less ⋈ label its tuples.
	{`for $a in outCOM(<p>x</p>), $b in inCOM(<p>y</p>) return <r id="{$a.callId}"/> by channel A`,
		`for $c in outCOM(<p>x</p>), $d in inCOM(<p>y</p>) return <r id="{$c.callId}"/> by channel B`},
	// An alerter's arguments choose what it watches.
	{`for $r in rssCOM(<p>a</p><feed url="x"/>) return $r by channel A`,
		`for $r in rssCOM(<p>a</p><feed url="y"/>) return $r by channel B`},
	// Parentheses change the arithmetic.
	{`for $e in inCOM(<p>src</p>) where 0 < $e.responseTimestamp - ($e.callTimestamp - $e.responseTimestamp) return $e by channel A`,
		`for $e in inCOM(<p>src</p>) where 0 < $e.responseTimestamp - $e.callTimestamp - $e.responseTimestamp return $e by channel B`},
	// A dynamic alerter set's function.
	{`for $j in areRegistered(<p>s</p>) for $c in inCOM($j) return $c by channel A`,
		`for $j in areRegistered(<p>s</p>) for $c in outCOM($j) return $c by channel B`},
	// A quoted "$e" is a literal, not the variable subsumption renames.
	{`for $e in inCOM(<p>s</p>) where $e.callMethod = "$e" return $e by channel A`,
		`for $f in inCOM(<p>s</p>) where $f.callMethod = "$_" return $f by channel B`},
	// A γ's window.
	{`for $e in inCOM(<p>s0</p><p>s1</p>) return $e group on "callee" window "10s" by channel A`,
		`for $e in inCOM(<p>s0</p><p>s1</p>) return $e group on "callee" window "24s" by channel B`},
	// A γ's function.
	{`for $e in inCOM(<p>s0</p><p>s1</p>) return $e group on "callee" window "10s" by channel A`,
		`for $e in inCOM(<p>s0</p><p>s1</p>) return $e group sum of "callTimestamp" on "callee" window "10s" by channel B`},
	// Subsumption must weigh every conjunct: a one-condition filter
	// covers neither conjunct of the other.
	{`for $e in inCOM(<p>s</p>) where $e.callMethod = "Q" and $e.caller = "c" return $e by channel A`,
		`for $e in inCOM(<p>s</p>) where $e.callId = "1" return $e by channel B`},
}

// deployedPlan runs src through the algebra stages of the deploy chain —
// Compile, Optimize, MarkBodyReaders — or returns nil where it stops, or
// where evalPlan cannot follow.
func deployedPlan(src string) *Node {
	sub, err := p2pml.Parse(src)
	if err != nil {
		return nil
	}
	plan, err := Compile(sub)
	if err != nil {
		return nil
	}
	plan = MarkBodyReaders(Optimize(plan, DefaultOptions("mgr")))
	if !evaluable(plan) || plan.Count() > 40 {
		return nil
	}
	return plan
}

// FuzzSignature: equal signatures give equal streams, the rule Section
// 5's reuse rests on. Both subscriptions deploy (deployedPlan) and are
// evaluated on traces shared by both, drawn from each text followed by
// the other (alertTraces). Any two of their sub-plans with equal
// Signature() give the same items, or both fail; and wherever one σ's
// canonical conditions (CanonConds) contain another's over inputs of
// equal signatures, the wider σ gives what the residual σ gives over the
// narrower one — the stream subsumption hands a subscription. Seeded
// with signaturePairs and FuzzSubscription's seeds, each against the
// next.
func FuzzSignature(f *testing.F) {
	for _, p := range signaturePairs {
		f.Add(p[0], p[1])
	}
	for i, src := range subscriptionSeeds {
		f.Add(src, subscriptionSeeds[(i+1)%len(subscriptionSeeds)])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		pa, pb := deployedPlan(a), deployedPlan(b)
		if pa == nil || pb == nil {
			return
		}
		traces := append(alertTraces(a+"\n"+b, pa, pb), alertTraces(b+"\n"+a, pa, pb)...)
		var nodes []*Node
		bySig := map[string]*Node{}
		for _, plan := range []*Node{pa, pb} {
			plan.Walk(func(n *Node) {
				if n.Op == OpPublish {
					return
				}
				nodes = append(nodes, n)
				if first, ok := bySig[n.Signature()]; ok {
					checkSameStream(t, "equal signatures "+n.Signature(), first, n, traces)
				} else {
					bySig[n.Signature()] = n
				}
			})
		}
		for _, wide := range nodes {
			wk, ok := CanonConds(wide)
			if !ok {
				continue
			}
			for _, narrow := range nodes {
				nk, ok := CanonConds(narrow)
				if !ok || narrow == wide || narrow.Inputs[0].Signature() != wide.Inputs[0].Signature() {
					continue
				}
				if res, covered := residualOver(wide, wk, narrow, nk); covered {
					checkSameStream(t, "subsumption", wide, res, traces)
				}
			}
		}
	})
}

// residualOver builds what subsumption deploys for σ node wide over the
// narrower σ: the conditions of wide's canonical set wk that narrow's nk
// leaves out, over narrow's stream relabelled with wide's input
// variable. covered is false when nk names a condition wk lacks.
func residualOver(wide *Node, wk map[string]p2pml.Condition, narrow *Node, nk map[string]p2pml.Condition) (res *Node, covered bool) {
	for k := range nk {
		if _, ok := wk[k]; !ok {
			return nil, false
		}
	}
	var conds []p2pml.Condition
	for _, k := range slices.Sorted(maps.Keys(wk)) {
		if _, ok := nk[k]; !ok {
			conds = append(conds, wk[k])
		}
	}
	in := *narrow
	in.Schema = wide.Inputs[0].Schema
	if len(conds) == 0 {
		return &in, true
	}
	return &Node{Op: OpSelect, Inputs: []*Node{&in}, Schema: wide.Schema,
		Select: &SelectSpec{Conds: conds, Lets: NeededLets(wide.Select.Lets, conds...)}}, true
}

// checkSameStream fails when x and y evaluate differently on a trace.
func checkSameStream(t *testing.T, why string, x, y *Node, traces []map[string][]*xmltree.Node) {
	t.Helper()
	for _, in := range traces {
		gx, ex := evalPlan(x, in)
		gy, ey := evalPlan(y, in)
		if (ex != nil) != (ey != nil) {
			t.Fatalf("%s: one errs (%v, %v):\n%s\n%s", why, ex, ey, x.Tree(), y.Tree())
		}
		if sx, sy := canonSet(gx), canonSet(gy); sx != sy {
			t.Fatalf("%s, different streams:\n %s\n %s\n%s\n%s", why, sx, sy, x.Tree(), y.Tree())
		}
	}
}
