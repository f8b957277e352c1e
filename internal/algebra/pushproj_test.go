package algebra

import (
	"fmt"
	"strings"
	"testing"

	"p2pm/internal/p2pml"
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
			"publisher@mgr(∪@s7(" + strings.Join(hits, ", ") + "))"},
		{"identity stays",
			`for $e in ` + inPeers(2) + ` where $e.callMethod = "Q" return $e by channel X`,
			"publisher@mgr(Π@s1(∪@s1(σ@s0(in@s0), σ@s1(in@s1))))"},
		{"a spliced tree stays",
			`for $e in ` + inPeers(2) + ` where $e.callMethod = "Q" return <x>{$e}</x> by channel X`,
			"publisher@mgr(Π@s1(∪@s1(σ@s0(in@s0), σ@s1(in@s1))))"},
		{"an expression that is not the identity moves",
			`for $e in ` + inPeers(2) + ` return $e.callId by channel X`,
			"publisher@mgr(∪@s1(Π@s0(in@s0), Π@s1(in@s1)))"},
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
			"publisher@mgr(Π@s1(∪@s1(Π@s0(in@s0), Π@s1(in@s1))))"},
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
			"publisher@mgr(Π@s1(∪@s1(in@s0, in@s1)))"},
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

// FuzzSubscription: the subscription front end — Parse, Compile,
// Optimize — never panics on any text, and a plan it accepts has every
// Π that can move through a ∪ moved and no identity Π left under a γ or
// a δ.
func FuzzSubscription(f *testing.F) {
	for _, src := range []string{
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
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sub, err := p2pml.Parse(src)
		if err != nil {
			return
		}
		plan, err := Compile(sub)
		if err != nil {
			return
		}
		plan = Optimize(plan, DefaultOptions("mgr"))
		checkNoPushableProjection(t, plan)
		checkNoIdentityUnderAggregate(t, plan)
	})
}
