package algebra

import (
	"fmt"
	"hash/fnv"
	"regexp"
	"slices"
	"strings"
	"testing"

	"p2pm/internal/p2pml"
	"p2pm/internal/xmltree"
)

// inPeers renders inCOM(<p>s0</p>…<p>s{n-1}</p>).
func inPeers(n int) string {
	var b strings.Builder
	b.WriteString("inCOM(")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<p>s%d</p>", i)
	}
	b.WriteString(")")
	return b.String()
}

// TestOptimizePushesProjectionThroughUnion: a Π directly over a ∪ moves
// into every branch and runs at the branch's peer, unless it is the
// identity or splices a whole input tree; a Π over a join stays.
func TestOptimizePushesProjectionThroughUnion(t *testing.T) {
	var hits []string
	for i := 0; i < 8; i++ {
		hits = append(hits, fmt.Sprintf("Π@s%d(σ@s%d(in@s%d))", i, i, i))
	}
	cases := []struct {
		name, sub, want string
	}{
		{"hits: Π into all 8 branches",
			`for $e in ` + inPeers(8) + ` where $e.callMethod = "Q" return <hit id="{$e.callId}"/> by publish as channel "hits"`,
			"publisher@mgr(∪@mgr(" + strings.Join(hits, ", ") + "))"},
		{"identity stays",
			`for $e in ` + inPeers(2) + ` where $e.callMethod = "Q" return $e by channel X`,
			"publisher@mgr(Π@mgr(∪@mgr(σ@s0(in@s0), σ@s1(in@s1))))"},
		{"a spliced tree stays",
			`for $e in ` + inPeers(2) + ` where $e.callMethod = "Q" return <x>{$e}</x> by channel X`,
			"publisher@mgr(Π@mgr(∪@mgr(σ@s0(in@s0), σ@s1(in@s1))))"},
		{"an expression that is not the identity moves",
			`for $e in ` + inPeers(2) + ` return $e.callId by channel X`,
			"publisher@mgr(∪@mgr(Π@s0(in@s0), Π@s1(in@s1)))"},
		{"Π over a join stays", figure1,
			"publisher@mgr(Π@meteo.com(⋈@meteo.com(∪@b.com(σ@a.com(out@a.com), σ@b.com(out@b.com)), in@meteo.com)))"},
		{"γ over a template Π over ∪",
			`for $e in ` + inPeers(2) + ` return <d m="{$e.callee}"/> group on "m" window "30s" by channel C`,
			"publisher@mgr(γ@s1(∪@s1(Π@s0(in@s0), Π@s1(in@s1))))"},
		{"distinct over a template Π over ∪",
			`for $e in ` + inPeers(2) + ` return distinct <a>{$e.caller}</a> by channel C`,
			"publisher@mgr(δ@s1(∪@s1(Π@s0(in@s0), Π@s1(in@s1))))"},
		{"a nested template moves, the outer identity stays",
			`for $x in (for $y in ` + inPeers(2) + ` return <q c="{$y.caller}"/>) return $x by channel C`,
			"publisher@mgr(Π@mgr(∪@mgr(Π@s0(in@s0), Π@s1(in@s1))))"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := Compile(p2pml.MustParse(tc.sub))
			if err != nil {
				t.Fatal(err)
			}
			plan = Optimize(plan, DefaultOptions("mgr"))
			if got := plan.String(); got != tc.want {
				t.Errorf("plan =\n  %s\nwant\n  %s", got, tc.want)
			}
			checkNoPushableProjection(t, plan)
		})
	}
}

// TestPushedProjectionsHaveTheirOwnSignatures: each branch's Π is its own
// stream — placement-independent, distinct per monitored peer — so the
// reuse pass can share it on its own.
func TestPushedProjectionsHaveTheirOwnSignatures(t *testing.T) {
	plan, err := Compile(p2pml.MustParse(`for $e in ` + inPeers(3) + ` return <hit id="{$e.callId}"/> by channel X`))
	if err != nil {
		t.Fatal(err)
	}
	plan = Optimize(plan, DefaultOptions("mgr"))
	seen := map[string]bool{}
	plan.Walk(func(n *Node) {
		if n.Op != OpRestruct {
			return
		}
		sig := n.Signature()
		if want := `Restructure{<hit id="{$e.callId}"/>}(inCOM(` + n.Peer + `))`; sig != want {
			t.Errorf("Π@%s signature %s, want %s", n.Peer, sig, want)
		}
		seen[sig] = true
	})
	if len(seen) != 3 {
		t.Errorf("%d distinct Π signatures, want 3", len(seen))
	}
}

// checkNoPushableProjection fails when an optimized plan still has a Π
// directly over a ∪ that is neither the identity nor splices a tree.
func checkNoPushableProjection(t *testing.T, plan *Node) {
	t.Helper()
	plan.Walk(func(n *Node) {
		if pushesThroughUnion(n) {
			t.Errorf("%s @%s is still directly over a ∪:\n%s", n.Label(), n.Peer, plan.Tree())
		}
	})
}

// TestOptimizeDropsIdentityUnderAggregate: canonicalization removes a Π
// that returns its input's one variable from under a γ or a δ, with or
// without pushdown, so a P2PML group is γ directly over ∪; every other Π
// stays where it is.
func TestOptimizeDropsIdentityUnderAggregate(t *testing.T) {
	cases := []struct {
		name, sub, want string
	}{
		{"group",
			`for $e in ` + inPeers(3) + ` return $e group on "callee" window "10s" by channel G`,
			"publisher@mgr(γ@s2(∪@s2(in@s0, in@s1, in@s2)))"},
		{"distinct group",
			`for $e in ` + inPeers(3) + ` return distinct $e group on "callee" window "10s" by channel G`,
			"publisher@mgr(γ@s2(δ@s2(∪@s2(in@s0, in@s1, in@s2))))"},
		{"distinct",
			`for $e in ` + inPeers(2) + ` return distinct $e by channel D`,
			"publisher@mgr(δ@s1(∪@s1(in@s0, in@s1)))"},
		{"identity under the publisher stays",
			`for $e in ` + inPeers(2) + ` return $e by channel X`,
			"publisher@mgr(Π@mgr(∪@mgr(in@s0, in@s1)))"},
		{"a variable of a join tuple stays",
			`for $a in inCOM(<p>s0</p>), $b in inCOM(<p>s1</p>) where $a.callId = $b.callId return $a group on "callee" window "10s" by channel G`,
			"publisher@mgr(γ@s1(Π@s1(⋈@s1(in@s0, in@s1))))"},
		{"a spliced tree stays",
			`for $e in ` + inPeers(2) + ` return <x>{$e}</x> group on "callee" window "10s" by channel G`,
			"publisher@mgr(γ@s1(Π@s1(∪@s1(in@s0, in@s1))))"},
		{"a LET variable stays",
			`for $e in ` + inPeers(2) + ` let $x := $e return $x group on "callee" window "10s" by channel G`,
			"publisher@mgr(γ@s1(Π@s1(∪@s1(in@s0, in@s1))))"},
	}
	for _, tc := range cases {
		for _, pushdown := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/pushdown=%t", tc.name, pushdown), func(t *testing.T) {
				plan, err := Compile(p2pml.MustParse(tc.sub))
				if err != nil {
					t.Fatal(err)
				}
				plan = Optimize(plan, Options{SubscriberPeer: "mgr", Pushdown: pushdown})
				if got := plan.String(); got != tc.want {
					t.Errorf("plan =\n  %s\nwant\n  %s", got, tc.want)
				}
				checkNoIdentityUnderAggregate(t, plan)
			})
		}
	}
}

// checkNoIdentityUnderAggregate fails when an optimized plan still has an
// identity Π over a single-variable input directly under a γ or a δ.
func checkNoIdentityUnderAggregate(t *testing.T, plan *Node) {
	t.Helper()
	plan.Walk(func(n *Node) {
		if n.Op != OpGroup && n.Op != OpDistinct {
			return
		}
		for _, in := range n.Inputs {
			if isIdentityRestruct(in) {
				t.Errorf("%s @%s is still directly under %s:\n%s", in.Label(), in.Peer, n.Label(), plan.Tree())
			}
		}
	})
}

// subscriptionSeeds seed FuzzSubscription, and FuzzSignature pairwise.
var subscriptionSeeds = []string{
	figure1,
	`for $e in ` + inPeers(8) + ` where $e.callMethod = "Q" return <hit id="{$e.callId}"/> by publish as channel "hits"`,
	`for $e in ` + inPeers(2) + ` return $e group on "callee" window "10s" by channel G`,
	`for $e in ` + inPeers(2) + ` return <x>{$e}</x> by channel X`,
	`for $x in (for $y in ` + inPeers(2) + ` return <q c="{$y.caller}"/>) where $x/q return $x by channel C`,
	`for $j in areRegistered(<p>s.com</p>) for $c in inCOM($j) return $c by channel W`,
	`for $x in channel("a@p") return distinct <a>{$x.k}</a> by file "f"`,
	`for $e in outCOM(<p>a</p><p>b</p>) let $d := $e.responseTimestamp - $e.callTimestamp where $d > 1 return <s d="{$d}"/> by email "x"`,
	`for $e in ` + inPeers(3) + ` return distinct $e group on "callee" window "10s" by channel G`,
	`for $e in ` + inPeers(2) + ` let $d := $e.responseTimestamp - $e.callTimestamp where $d > 1 return $e group on "callee" window "10s" by channel G`,
}

// FuzzSubscription: the subscription front end — Parse, Compile,
// Optimize, MarkBodyReaders — never panics on any text; a subscription
// it parses renders to text that parses back to the same rendering; and
// a plan it accepts is placed as place says (checkPlacement), has every
// Π that can move through a ∪ moved and no identity Π left under a γ or
// a δ; neither the compiled nor the optimized plan has a ∪ directly
// under a ∪. Optimize, with and without pushdown, and the
// marks keep the compiled plan's results, every alerter of which carries
// its envelope, on alert traces drawn from the subscription's own
// constants and paths (checkSameResults); marking is idempotent; no
// Π Optimize put below a ∪ copies its whole input tree
// (checkPushedProjectionsCut); and no result writes a number with an
// exponent (checkNoNewExponent).
func FuzzSubscription(f *testing.F) {
	for _, src := range subscriptionSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sub, err := p2pml.Parse(src)
		if err != nil {
			return
		}
		if again, err := p2pml.Parse(sub.String()); err != nil || again.String() != sub.String() {
			t.Fatalf("%q does not parse back to itself: %v", sub.String(), err)
		}
		naive, err := Compile(sub)
		if err != nil {
			return
		}
		plan := MarkBodyReaders(Optimize(naive.Clone(), DefaultOptions("mgr")))
		checkPlacement(t, plan, "mgr")
		checkMarksIdempotent(t, plan)
		checkNoPushableProjection(t, plan)
		checkNoIdentityUnderAggregate(t, plan)
		checkNoNestedUnion(t, naive)
		checkNoNestedUnion(t, plan)
		if !evaluable(naive) || naive.Count() > 40 {
			return
		}
		traces := alertTraces(src, naive)
		checkSameResults(t, naive, plan, traces)
		checkSameResults(t, naive, MarkBodyReaders(Optimize(naive.Clone(), Options{SubscriberPeer: "mgr"})), traces)
		checkPushedProjectionsCut(t, plan, traces)
		checkNoNewExponent(t, src, naive, traces)
	})
}

var (
	comparedConst = regexp.MustCompile(`\$\w+\.(\w+)\s*(?:!=|<=|>=|=|<|>)\s*(?:"([^"]*)"|(-?[0-9]+(?:\.[0-9]+)?))`)
	numberConst   = regexp.MustCompile(`-?[0-9]+(?:\.[0-9]+)?`)
	attrName      = regexp.MustCompile(`\$\w+\.(\w+)`)
	pathStep      = regexp.MustCompile(`\$\w+((?:/+\w+)+)`)
	// exponent is a number written with an exponent, as strconv's 'g'
	// writes one and XPath's string() never does.
	exponent = regexp.MustCompile(`[0-9]e[+-][0-9][0-9]`)
)

// traceMembers are the peers a membership driver's p-joins name.
var traceMembers = []string{"m0", "m1", "m2"}

// alertTraces builds a few seeded inputs for the plans' alerters, one
// list per alerterKey, shared by every plan. Every alert carries the WS
// attributes and every attribute the subscription names. An attribute
// the subscription compares with constants takes one of them; any other
// takes "0" or "100", so joins find partners and differences have a
// sign. Every other trace widens both pools with "x" and the numbers the
// subscription mentions, so conditions fail too. Below its root every
// alert has an envelope, <Envelope><Body>, holding one param per name a
// path of the subscription steps through, its text drawn from the same
// pools: what a bare alerter leaves out. A membership alerter's inputs
// are p-joins of traceMembers instead, and a dynamic alerter set gets an
// input list for each of them.
func alertTraces(src string, plans ...*Node) []map[string][]*xmltree.Node {
	narrow := []string{"0", "100"}
	wide := append([]string{"0", "100", "x"}, numberConst.FindAllString(src, -1)...)
	compared := map[string][]string{}
	for _, m := range comparedConst.FindAllStringSubmatch(src, -1) {
		compared[m[1]] = append(compared[m[1]], m[2]+m[3])
	}
	attrs := []string{"callId", "callMethod", "callee", "caller", "callTimestamp", "responseTimestamp"}
	for _, m := range attrName.FindAllStringSubmatch(src, -1) {
		attrs = append(attrs, m[1])
	}
	var params []string
	for _, m := range pathStep.FindAllStringSubmatch(src, -1) {
		params = append(params, strings.FieldsFunc(m[1], func(r rune) bool { return r == '/' })...)
	}
	var sources []string
	drivers := map[string]bool{}
	add := func(key string) {
		if !slices.Contains(sources, key) {
			sources = append(sources, key)
		}
	}
	for _, plan := range plans {
		plan.Walk(func(n *Node) {
			switch n.Op {
			case OpAlerter:
				key := alerterKey(n.Alerter, n.Alerter.Peer)
				drivers[key] = n.Alerter.Kind == "membership"
				add(key)
			case OpDynAlerter:
				for _, m := range traceMembers {
					add(alerterKey(n.Alerter, m))
				}
			}
		})
	}
	h := fnv.New64a()
	h.Write([]byte(src))
	rnd := newRand2(int64(h.Sum64()))
	traces := make([]map[string][]*xmltree.Node, 4)
	for i := range traces {
		traces[i] = map[string][]*xmltree.Node{}
		for _, key := range sources {
			for j := rnd.Intn(7); j > 0; j-- {
				if drivers[key] {
					traces[i][key] = append(traces[i][key], xmltree.ElemText("p-join", traceMembers[rnd.Intn(len(traceMembers))]))
					continue
				}
				pick := func(values []string) string {
					if i%2 == 1 {
						values = append(values[:len(values):len(values)], wide...)
					}
					return values[rnd.Intn(len(values))]
				}
				n := xmltree.Elem("alert")
				for _, a := range attrs {
					values := narrow
					if c := compared[a]; len(c) > 0 {
						values = c
					}
					n.SetAttr(a, pick(values))
				}
				body := xmltree.Elem("Body")
				for _, p := range params {
					body.Append(xmltree.ElemText(p, pick(narrow)))
				}
				n.Append(xmltree.Elem("Envelope", body))
				traces[i][key] = append(traces[i][key], n)
			}
		}
	}
	return traces
}

// checkPlacement fails unless the ∪ that the publisher reads through Π's
// alone, if there is one, runs at the subscriber with those Π's, and
// every other ∪ and every ⋈ runs at its last input's peer.
func checkPlacement(t *testing.T, plan *Node, subscriber string) {
	t.Helper()
	top := plan.Inputs[0]
	var above []*Node
	for top.Op == OpRestruct {
		above, top = append(above, top), top.Inputs[0]
	}
	plan.Walk(func(n *Node) {
		want := ""
		switch {
		case top.Op == OpUnion && (n == top || slices.Contains(above, n)):
			want = subscriber
		case n.Op == OpUnion || n.Op == OpJoin:
			want = n.Inputs[len(n.Inputs)-1].Peer
		default:
			return
		}
		if n.Peer != want {
			t.Fatalf("%s runs @%s, want @%s:\n%s", n.Label(), n.Peer, want, plan.Tree())
		}
	})
}

// checkMarksIdempotent fails when marking a marked plan again moves a
// mark.
func checkMarksIdempotent(t *testing.T, plan *Node) {
	t.Helper()
	again := MarkBodyReaders(plan.Clone())
	if got, want := again.Tree(), plan.Tree(); got != want {
		t.Fatalf("marking again moved a mark:\n%s\nwas\n%s", got, want)
	}
}

// checkNoNestedUnion fails when a ∪ sits directly under a ∪. Compile
// emits one ∪ per multi-peer alerter source, over alerters only, and a
// nested for feeds its σ, Π, γ or δ to the outer plan, never a ∪; so
// the normal form needs no flattening rule while this holds.
func checkNoNestedUnion(t *testing.T, plan *Node) {
	t.Helper()
	plan.Walk(func(n *Node) {
		for _, in := range n.Inputs {
			if n.Op == OpUnion && in.Op == OpUnion {
				t.Fatalf("∪ directly under a ∪:\n%s", plan.Tree())
			}
		}
	})
}

// checkSameResults fails when optimized and naive disagree on a trace:
// different result sets, or one of them errs where the other does not.
func checkSameResults(t *testing.T, naive, optimized *Node, traces []map[string][]*xmltree.Node) {
	t.Helper()
	for _, in := range traces {
		want, werr := evalPlan(naive, in)
		got, gerr := evalPlan(optimized, in)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("compiled plan errs %v, optimized %v:\n%s", werr, gerr, optimized.Tree())
		}
		if w, g := canonSet(want), canonSet(got); w != g {
			t.Fatalf("optimization changed the results:\n compiled  %s\n optimized %s\n%s", w, g, optimized.Tree())
		}
	}
}

// checkNoNewExponent fails when a result of plan holds a number in the
// exponent form strconv's 'g' writes ("2.5e+06"): every number the
// monitor computes or reads from a literal is written as XPath's
// string() writes it. An alert of the traces holds an "e+" or "e-" only
// when the subscription's text does, and that text may spell one next
// to a number itself, so such a subscription is not checked for it.
func checkNoNewExponent(t *testing.T, src string, plan *Node, traces []map[string][]*xmltree.Node) {
	t.Helper()
	for _, in := range traces {
		items, err := evalPlan(plan, in)
		if err != nil {
			continue
		}
		for _, it := range items {
			if e := exponent.FindString(it.Tree.Canonical()); e != "" && !strings.Contains(src, e[1:3]) {
				t.Fatalf("result %s writes a number with the exponent %q:\n%s", it.Tree.Canonical(), e, plan.Tree())
			}
		}
	}
}

// checkPushedProjectionsCut fails when a Π that sits directly under a ∪
// emits an item containing the whole item it was given: such a Π ships
// no fewer bytes from the branch than the raw stream would, which is why
// Optimize leaves it above the ∪.
func checkPushedProjectionsCut(t *testing.T, plan *Node, traces []map[string][]*xmltree.Node) {
	t.Helper()
	plan.Walk(func(u *Node) {
		if u.Op != OpUnion {
			return
		}
		for _, b := range u.Inputs {
			if b.Op != OpRestruct {
				continue
			}
			apply := RestructApply(b.Inputs[0].Schema, b.Restruct)
			for _, in := range traces {
				items, err := evalPlan(b.Inputs[0], in)
				if err != nil {
					return
				}
				for _, it := range items {
					if out, err := apply(it.Tree); err == nil && out != nil && strings.Contains(out.Canonical(), it.Tree.Canonical()) {
						t.Fatalf("%s @%s under a ∪ copies its whole input %s:\n%s", b.Label(), b.Peer, it.Tree.Canonical(), plan.Tree())
					}
				}
			}
		}
	})
}
