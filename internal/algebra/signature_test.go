package algebra

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"p2pm/internal/p2pml"
	"p2pm/internal/stream"
)

// refDesc and refSignatureWith are the fmt-based renderings SignatureWith
// and GroupSpec.desc replaced, kept verbatim as the reference: signatures
// are DHT keys, so the rewrite must produce the same bytes.
func refDesc(g *GroupSpec) string {
	if g.Fn == "" || g.Fn == "count" {
		return fmt.Sprintf("%s/%s", g.KeyAttr, g.Window)
	}
	return fmt.Sprintf("%s(%s):%s/%s", g.Fn, g.ValueAttr, g.KeyAttr, g.Window)
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
		b.WriteString(normalizedConds(n.Select.Conds))
	case OpJoin:
		if n.Join.LeftKey != nil {
			fmt.Fprintf(&b, "%s=%s", n.Join.LeftKey.String(), n.Join.RightKey.String())
		}
		if len(n.Join.Residual) > 0 {
			b.WriteString(";")
			b.WriteString(normalizedConds(n.Join.Residual))
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
// every operator kind: compiled plans for the specs only the compiler
// builds (σ, ⋈ with and without residual, Π by template and by
// expression, distinct, dynamic alerters), hand-built nodes for the rest,
// each with empty, single, long and reordered input signatures.
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
	union, join := &Node{Op: OpUnion}, &Node{Op: OpJoin, Join: &JoinSpec{}}
	if union.SignatureWith(inputSets[4]) != union.SignatureWith(inputSets[5]) {
		t.Error("reordered unions sign differently")
	}
	if join.SignatureWith(inputSets[3]) == join.SignatureWith([]string{"inCOM(a)", "outCOM(b)"}) {
		t.Error("join signature ignores input order")
	}
}
