package algebra

import (
	"strings"
	"testing"

	"p2pm/internal/p2pml"
)

// marks lists the plan's WS alerters in walk order, each as
// "peer:body" or "peer:bare".
func marks(plan *Node) string {
	var out []string
	plan.Walk(func(n *Node) {
		if n.Op != OpAlerter {
			return
		}
		mark := "bare"
		if n.Envelope() {
			mark = "body"
		}
		out = append(out, n.Alerter.Peer+":"+mark)
	})
	return strings.Join(out, " ")
}

// TestMarkBodyReaders pins the marking rules on optimized plans: paths,
// whole variables, a δ and the publisher observe an alerter's subtree
// until a Π or a γ replaces the item; attributes, join keys and group
// keys read the root only.
func TestMarkBodyReaders(t *testing.T) {
	for _, c := range []struct{ name, src, want string }{
		{"attributes only", `for $e in inCOM(<p>a</p><p>b</p>) where $e.callMethod = "Q" return <r id="{$e.callId}"/> by channel C`, "a:bare b:bare"},
		{"path condition", `for $e in inCOM(<p>a</p>) where $e//city return <r id="{$e.callId}"/> by channel C`, "a:body"},
		{"path in a template", `for $e in inCOM(<p>a</p>) return <r city="{$e//city}"/> by channel C`, "a:body"},
		{"path in a LET", `for $e in inCOM(<p>a</p>) let $c := $e//city where $c = "paris" return <r/> by channel C`, "a:body"},
		{"whole variable returned", `for $e in inCOM(<p>a</p><p>b</p>) where $e.callMethod = "Q" return $e by channel C`, "a:body b:body"},
		{"whole variable spliced", `for $e in inCOM(<p>a</p>) return <x>{$e}</x> by channel C`, "a:body"},
		{"whole variable compared", `for $e in inCOM(<p>a</p>) where $e = "x" return <r/> by channel C`, "a:body"},
		{"δ over a Π", `for $e in inCOM(<p>a</p>) return distinct <r id="{$e.callId}"/> by channel C`, "a:bare"},
		{"group", `for $e in inCOM(<p>a</p><p>b</p>) return $e group on "callee" window "10s" by channel G`, "a:bare b:bare"},
		{"δ under a group", `for $e in inCOM(<p>a</p><p>b</p>) return distinct $e group on "callee" window "10s" by channel G`, "a:body b:body"},
		{"join keys, one side's path", `for $a in outCOM(<p>a</p>), $b in inCOM(<p>m</p>) where $a.callId = $b.callId return <p x="{$a.caller}" y="{$b//city}"/> by channel J`, "a:bare m:body"},
		{"nested source", `for $x in (for $y in inCOM(<p>a</p>) return <q c="{$y.caller}"/>) where $x/q return $x by channel N`, "a:bare"},
		{"nested δ, renamed", `for $x in (for $y in inCOM(<p>a</p>) return distinct $y) where $x.caller = "c" return <r/> by channel N`, "a:body"},
	} {
		t.Run(c.name, func(t *testing.T) {
			plan, err := Compile(p2pml.MustParse(c.src))
			if err != nil {
				t.Fatal(err)
			}
			plan = MarkBodyReaders(Optimize(plan, DefaultOptions("mgr")))
			if got := marks(plan); got != c.want {
				t.Errorf("marks %q, want %q:\n%s", got, c.want, plan.Tree())
			}
			if allocs := testing.AllocsPerRun(20, func() { MarkBodyReaders(plan) }); allocs != 0 {
				t.Errorf("marking allocates %.0f times", allocs)
			}
		})
	}
}

// TestBodyMarkSignsAndRenders: only a body reader signs and renders
// differently from an alerter of the time before marks; an unmarked
// alerter keeps the envelope.
func TestBodyMarkSignsAndRenders(t *testing.T) {
	n := NewAlerter("inCOM", "ws-in", "a.com", "e", nil)
	for _, c := range []struct {
		mark           BodyMark
		envelope       bool
		sig, rendering string
	}{
		{BodyUnmarked, true, "inCOM(a.com)", "in@a.com"},
		{BodyUnread, false, "inCOM(a.com)", "in@a.com"},
		{BodyRead, true, "inCOM+body(a.com)", "in+body@a.com"},
	} {
		n.Body = c.mark
		if n.Envelope() != c.envelope || n.Signature() != c.sig || n.String() != c.rendering {
			t.Errorf("mark %d: envelope %v, %s, %s; want %v, %s, %s",
				c.mark, n.Envelope(), n.Signature(), n, c.envelope, c.sig, c.rendering)
		}
	}
}
