package p2pml

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"p2pm/internal/xmltree"
	"p2pm/internal/xpath"
)

// figure1 is the subscription of Figure 1, verbatim from the paper.
const figure1 = `for $c1 in outCOM(<p>http://a.com</p>
                   <p>http://b.com</p>),
    $c2 in inCOM(<p>http://meteo.com</p>)
let $duration := $c1.responseTimestamp
               - $c1.callTimestamp
where
    $duration > 10 and
    $c1.callMethod = "GetTemperature" and
    $c1.callee = "http://meteo.com" and
    $c1.callId = $c2.callId
return
    <incident type = "slowAnswer">
      <client>{$c1.caller}</client>
      <tstamp>{$c2.callTimestamp}</tstamp>
    </incident>
by publish as channel "alertQoS";`

func TestParseFigure1(t *testing.T) {
	sub, err := Parse(figure1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.For) != 2 {
		t.Fatalf("for bindings = %d", len(sub.For))
	}
	c1 := sub.For[0]
	if c1.Var != "c1" {
		t.Errorf("var = %s", c1.Var)
	}
	al := c1.Source.(*AlerterSource)
	if al.Func != "outCOM" || len(al.Peers) != 2 || al.Peers[0] != "a.com" || al.Peers[1] != "b.com" {
		t.Errorf("source = %+v", al)
	}
	c2 := sub.For[1].Source.(*AlerterSource)
	if c2.Func != "inCOM" || len(c2.Peers) != 1 || c2.Peers[0] != "meteo.com" {
		t.Errorf("c2 source = %+v", c2)
	}
	if len(sub.Let) != 1 || sub.Let[0].Var != "duration" {
		t.Fatalf("let = %+v", sub.Let)
	}
	if len(sub.Where) != 4 {
		t.Fatalf("where = %d conjuncts", len(sub.Where))
	}
	if sub.Return == nil || sub.Return.Template == nil {
		t.Fatal("return template missing")
	}
	if len(sub.By) != 1 || sub.By[0].Kind != ByPublishChannel || sub.By[0].Name != "alertQoS" {
		t.Fatalf("by = %+v", sub.By)
	}
}

// TestFigure1Semantics runs the parsed Figure 1 subscription's LET, WHERE
// and RETURN machinery against hand-built alerts and checks the incident
// output.
func TestFigure1Semantics(t *testing.T) {
	sub := MustParse(figure1)
	mkOut := func(callID, method, callee, caller string, callT, respT string) *xmltree.Node {
		n := xmltree.Elem("alert")
		n.SetAttr("callId", callID)
		n.SetAttr("callMethod", method)
		n.SetAttr("callee", callee)
		n.SetAttr("caller", caller)
		n.SetAttr("callTimestamp", callT)
		n.SetAttr("responseTimestamp", respT)
		return n
	}
	mkIn := func(callID, callT string) *xmltree.Node {
		n := xmltree.Elem("alert")
		n.SetAttr("callId", callID)
		n.SetAttr("callTimestamp", callT)
		return n
	}

	eval := func(c1, c2 *xmltree.Node) (*xmltree.Node, bool) {
		env := NewEnv()
		env.Bind("c1", c1)
		env.Bind("c2", c2)
		if err := EvalLets(sub.Let, env); err != nil {
			t.Fatal(err)
		}
		for _, cond := range sub.Where {
			ok, err := EvalCondition(cond, env)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return nil, false
			}
		}
		out, err := sub.Return.Template.Instantiate(env)
		if err != nil {
			t.Fatal(err)
		}
		return out, true
	}

	// Slow matching call: duration 15 > 10, same callId.
	out, ok := eval(
		mkOut("call-9", "GetTemperature", "http://meteo.com", "a.com", "100.0", "115.0"),
		mkIn("call-9", "100.1"))
	if !ok {
		t.Fatal("matching tuple rejected")
	}
	if out.Label != "incident" || out.AttrOr("type", "") != "slowAnswer" {
		t.Errorf("out = %s", out)
	}
	if out.Child("client").InnerText() != "a.com" {
		t.Errorf("client = %s", out.Child("client").InnerText())
	}
	if out.Child("tstamp").InnerText() != "100.1" {
		t.Errorf("tstamp = %s", out.Child("tstamp").InnerText())
	}

	// Fast call: rejected by $duration > 10.
	if _, ok := eval(
		mkOut("call-1", "GetTemperature", "http://meteo.com", "a.com", "100.0", "101.0"),
		mkIn("call-1", "100.1")); ok {
		t.Error("fast call accepted")
	}
	// Different callIds: rejected by the join condition.
	if _, ok := eval(
		mkOut("call-1", "GetTemperature", "http://meteo.com", "a.com", "100.0", "115.0"),
		mkIn("call-2", "100.1")); ok {
		t.Error("mismatched callIds accepted")
	}
	// Wrong method.
	if _, ok := eval(
		mkOut("call-1", "Other", "http://meteo.com", "a.com", "100.0", "115.0"),
		mkIn("call-1", "100.1")); ok {
		t.Error("wrong method accepted")
	}
}

// TestParseLocalTaskFigure4 parses the delegated local task the paper
// assigns to peer a.com in Section 3.4.
func TestParseLocalTaskFigure4(t *testing.T) {
	src := `for $e in outCOM(<p>local</p>)
let $duration := $e.responseTimestamp
               - $e.callTimestamp
where
   $duration > 10 and $e.callMethod = "GetTemperature"
   and $e.callee = "http://meteo.com"
return $e
by channel X and subscribe(b.com, #X, X)`
	sub, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if sub.For[0].Source.(*AlerterSource).Peers[0] != "local" {
		t.Error("local peer lost")
	}
	if sub.Return.Expr == nil {
		t.Fatal("bare return $e should be an expression")
	}
	if len(sub.By) != 2 {
		t.Fatalf("by = %+v", sub.By)
	}
	if sub.By[0].Kind != ByChannel || sub.By[0].Name != "X" {
		t.Errorf("by[0] = %+v", sub.By[0])
	}
	if sub.By[1].Kind != BySubscribe || sub.By[1].Peer != "b.com" || sub.By[1].ChannelID != "X" {
		t.Errorf("by[1] = %+v", sub.By[1])
	}
}

// TestParseDynamicMembership parses the Section 2 example where the
// monitored peer collection is fed by a DHT membership stream.
func TestParseDynamicMembership(t *testing.T) {
	src := `for $j in areRegistered(<p>s.com/dht</p>)
for $c in inCOM($j)
where $c.callMethod = "GetTemperature"
return <seen>{$c.caller}</seen>
by publish as channel "watch"`
	sub, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.For) != 2 {
		t.Fatalf("for = %d", len(sub.For))
	}
	src2 := sub.For[1].Source.(*AlerterSource)
	if src2.Func != "inCOM" || src2.StreamVar != "j" {
		t.Errorf("dynamic source = %+v", src2)
	}
}

func TestParseNestedSubscription(t *testing.T) {
	src := `for $x in ( for $y in inCOM(<p>m.com</p>) return $y )
where $x.callMethod = "Q"
return distinct <a>{$x.caller}</a>
by publish as channel "c"`
	sub, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ns, ok := sub.For[0].Source.(*NestedSource)
	if !ok {
		t.Fatalf("source = %T", sub.For[0].Source)
	}
	if ns.Sub.For[0].Var != "y" {
		t.Error("inner var lost")
	}
	if !sub.Return.Distinct {
		t.Error("distinct flag lost")
	}
}

// TestSubscriptionBody: Body is the text before BY, up to the last token,
// so subscriptions that differ only in their BY clause, or in the blanks
// and comments before it, share it. It is a substring of Source and
// costs no allocation.
func TestSubscriptionBody(t *testing.T) {
	const body = `for $x in ( for $y in inCOM(<p>m.com</p>) return $y )
where $x.callMethod = "Q"
return distinct <a>{$x.caller}</a> group on "caller" window "1m"`
	for _, tail := range []string{
		``,
		`;`,
		` by publish as channel "c"`,
		"\n  % alerts go to ops\nby email \"ops\" and file \"f\";",
		` by subscribe(b.com, #X, X)`,
	} {
		sub := MustParse(body + tail)
		if got := sub.Body(); got != body {
			t.Errorf("Body of %q = %q", body+tail, got)
		}
		if !strings.HasPrefix(sub.Source, sub.Body()) || unsafe.StringData(sub.Body()) != unsafe.StringData(sub.Source) {
			t.Errorf("Body of %q is not a substring of Source", body+tail)
		}
		if n := testing.AllocsPerRun(10, func() { _ = sub.Body() }); n != 0 {
			t.Errorf("Body allocates %v times", n)
		}
	}
	if got := (&Subscription{Source: body}).Body(); got != "" {
		t.Errorf("Body of a Subscription Parse did not return = %q, want empty", got)
	}
}

func TestParseChannelSource(t *testing.T) {
	sub := MustParse(`for $x in channel("alertQoS@meteo.com") return $x by file "out.xml"`)
	cs := sub.For[0].Source.(*ChannelSource)
	if cs.Ref != "alertQoS@meteo.com" {
		t.Errorf("ref = %s", cs.Ref)
	}
	if sub.By[0].Kind != ByFile {
		t.Errorf("by = %+v", sub.By[0])
	}
}

func TestParsePathConditions(t *testing.T) {
	sub := MustParse(`for $c in inCOM(<p>m</p>)
where $c/alert[@callMethod = "GetTemperature"] and $c.attr1 = "x" and $c//c/d
return $c by email "ops@m"`)
	if len(sub.Where) != 3 {
		t.Fatalf("where = %d", len(sub.Where))
	}
	if _, ok := sub.Where[0].(*PathCond); !ok {
		t.Errorf("where[0] = %T", sub.Where[0])
	}
	if _, ok := sub.Where[2].(*PathCond); !ok {
		t.Errorf("where[2] = %T", sub.Where[2])
	}
}

// TestComparisonTokens: a path predicate and a WHERE clause read each
// comparison token as the same operator, and neither reads "==".
func TestComparisonTokens(t *testing.T) {
	for tok, want := range map[string]xpath.CmpOp{
		"=": xpath.OpEq, "!=": xpath.OpNe, "<>": xpath.OpNe,
		"<": xpath.OpLt, "<=": xpath.OpLe, ">": xpath.OpGt, ">=": xpath.OpGe,
	} {
		path, err := xpath.Compile("a[@x " + tok + " 1]")
		if err != nil {
			t.Fatalf("%s: %v", tok, err)
		}
		sub, err := Parse(`for $e in inCOM(<p>m</p>) where $e.x ` + tok + ` 1 return $e by channel C`)
		if err != nil {
			t.Fatalf("%s: %v", tok, err)
		}
		if got := path.Steps[0].Preds[0].Op; got != want {
			t.Errorf("path predicate %s reads %v, want %v", tok, got, want)
		}
		if got := sub.Where[0].(*CmpCond).Op; got != want {
			t.Errorf("WHERE %s reads %v, want %v", tok, got, want)
		}
	}
	if _, err := xpath.Compile("a[@x == 1]"); err == nil {
		t.Error(`the path parser reads "=="`)
	}
	if _, err := Parse(`for $e in inCOM(<p>m</p>) where $e.x == 1 return $e by channel C`); err == nil {
		t.Error(`the subscription parser reads "=="`)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`where $x = 1`,                        // no FOR
		`for $x in inCOM(<p>m</p>)`,           // no RETURN
		`for $x in bogus(<p>m</p>) return $x`, // unknown alerter
		`for $x in inCOM() return $x`,         // no peers
		`for $x in inCOM(<p>m</p>) return $y`, // unbound var
		`for $x in inCOM(<p>m</p>) where $y = 1 return $x`,                           // unbound in where
		`for $x in inCOM(<p>m</p>), $x in inCOM(<p>n</p>) return $x`,                 // dup var
		`for $x in inCOM($z) return $x`,                                              // unbound stream var
		`for $x in inCOM(<p>m</p>) let $x := 1 return $x`,                            // let shadows for
		`for $x in inCOM(<p>m</p>) where $x return $x`,                               // bare var condition
		`for $x in inCOM(<p>m</p>) return <a>{$x.}</a>`,                              // bad template expr
		`for $x in inCOM(<p>m</p>) return <a>{$x.y}</a> by channel`,                  // missing channel name
		`for $x in ( for $y in inCOM(<p>m</p>) return $y by channel "c" ) return $x`, // nested BY
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseCommentsSkipped(t *testing.T) {
	sub := MustParse(`for $x in inCOM(<p>m</p>) % monitored server
return $x % forward everything
by publish as channel "c"`)
	if len(sub.For) != 1 {
		t.Error("comment handling broke parsing")
	}
}

func TestExprArithmetic(t *testing.T) {
	env := NewEnv()
	tree := xmltree.Elem("alert")
	tree.SetAttr("a", "10")
	tree.SetAttr("b", "4")
	env.Bind("x", tree)
	cases := []struct {
		src  string
		want float64
	}{
		{`$x.a + $x.b`, 14},
		{`$x.a - $x.b`, 6},
		{`$x.a * $x.b`, 40},
		{`$x.a / $x.b`, 2.5},
		{`$x.a - $x.b - 1`, 5}, // left associative
		{`$x.a - ($x.b - 1)`, 7},
		{`2 + 3 * 4`, 14}, // precedence
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		v, err := e.Eval(env)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if !v.IsNum || v.Num != c.want {
			t.Errorf("%s = %v, want %v", c.src, v.Num, c.want)
		}
	}
}

func TestExprErrors(t *testing.T) {
	env := NewEnv()
	tree := xmltree.Elem("alert")
	tree.SetAttr("s", "hello")
	env.Bind("x", tree)
	e, _ := ParseExpr(`$x.s + 1`)
	if _, err := e.Eval(env); err == nil {
		t.Error("string arithmetic should fail")
	}
	e, _ = ParseExpr(`1 / 0`)
	if _, err := e.Eval(env); err == nil {
		t.Error("division by zero should fail")
	}
	e, _ = ParseExpr(`$ghost`)
	if _, err := e.Eval(env); err == nil {
		t.Error("unbound variable should fail")
	}
}

func TestConditionMissingAttrIsFalse(t *testing.T) {
	env := NewEnv()
	env.Bind("x", xmltree.Elem("alert"))
	c := &CmpCond{Left: &AttrRef{Var: "x", Attr: "nope"}, Op: xpath.OpEq, Right: &Lit{Val: Value{Str: "v"}}}
	ok, err := EvalCondition(c, env)
	if err != nil || ok {
		t.Errorf("ok=%v err=%v; missing attribute should be false, not error", ok, err)
	}
}

func TestTemplateSpliceWholeTree(t *testing.T) {
	tpl, err := CompileTemplate(`<wrap>{$e}</wrap>`)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	env.Bind("e", xmltree.MustParse(`<alert x="1"><body/></alert>`))
	out, err := tpl.Instantiate(env)
	if err != nil {
		t.Fatal(err)
	}
	if out.Child("alert") == nil || out.Child("alert").Child("body") == nil {
		t.Errorf("out = %s", out)
	}
}

func TestTemplateAttrSubstitution(t *testing.T) {
	tpl, err := CompileTemplate(`<a id="pre-{$x.k}-post"/>`)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	tr := xmltree.Elem("t")
	tr.SetAttr("k", "42")
	env.Bind("x", tr)
	out, err := tpl.Instantiate(env)
	if err != nil {
		t.Fatal(err)
	}
	if out.AttrOr("id", "") != "pre-42-post" {
		t.Errorf("id = %s", out.AttrOr("id", ""))
	}
}

func TestTemplateMixedTextSegments(t *testing.T) {
	tpl, err := CompileTemplate(`<m>client {$x.c} was slow</m>`)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	tr := xmltree.Elem("t")
	tr.SetAttr("c", "a.com")
	env.Bind("x", tr)
	out, err := tpl.Instantiate(env)
	if err != nil {
		t.Fatal(err)
	}
	if out.InnerText() != "client a.com was slow" {
		t.Errorf("text = %q", out.InnerText())
	}
}

// TestTemplateOneExpressionPositionShares: an attribute or text position
// that is one expression takes the evaluated string itself — for an
// attribute reference, the input tree's own bytes — and one that is one
// literal takes the template's; only a mix of segments builds a string.
// Computed numbers render as FormatNumber writes them when emitted.
func TestTemplateOneExpressionPositionShares(t *testing.T) {
	tpl, err := CompileTemplate(`<hit id="{$x.k}" kind="slow" at="t={$x.k}" d="{$x.b - $x.a}">{$x.k}</hit>`)
	if err != nil {
		t.Fatal(err)
	}
	tr := xmltree.Elem("t")
	tr.SetAttr("k", "call-42")
	tr.SetAttr("a", "1.5")
	tr.SetAttr("b", "1.75")
	env := NewEnv()
	env.Bind("x", tr)
	out, err := tpl.Instantiate(env)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != `<hit id="call-42" kind="slow" at="t=call-42" d="0.25">call-42</hit>` {
		t.Fatalf("out = %s", got)
	}
	k := unsafe.StringData(tr.AttrOr("k", ""))
	if unsafe.StringData(out.AttrOr("id", "")) != k || unsafe.StringData(out.InnerText()) != k {
		t.Error("a one-expression position copied the input's string")
	}
	if unsafe.StringData(out.AttrOr("at", "")) == k {
		t.Error("a mixed position aliases the input")
	}
	if a := testing.AllocsPerRun(100, func() { tpl.Instantiate(env) }); a != 5 { //nolint:errcheck // bound above
		t.Errorf("Instantiate allocates %.0f, want 5 (three chunks, the mixed string, the number)", a)
	}
}

// TestResultNumbersHaveNoExponent: a LET's computed number and a number
// literal reach a result as XPath's string() writes them, in plain
// decimal however large or small.
func TestResultNumbersHaveNoExponent(t *testing.T) {
	const head = `for $e in inCOM(<p>s</p>) let $d := $e.responseTimestamp - $e.callTimestamp return `
	for _, c := range []struct{ ret, want string }{
		{`<s d="{$d}"/>`, `<s d="2500000"/>`},
		{`<s d="{$d / 100000000000}"/>`, `<s d="0.000025"/>`},
		{`<s>{1000000}</s>`, `<s>1000000</s>`},
		{`<s>{0.00001}</s>`, `<s>0.00001</s>`},
	} {
		sub := MustParse(head + c.ret + ` by channel C`)
		alert := xmltree.Elem("alert")
		alert.SetAttr("callTimestamp", "0")
		alert.SetAttr("responseTimestamp", "2500000")
		env := NewEnv()
		env.Bind("e", alert)
		if err := EvalLets(sub.Let, env); err != nil {
			t.Fatal(err)
		}
		out, err := sub.Return.Template.Instantiate(env)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != c.want {
			t.Errorf("return %s gives %s, want %s", c.ret, got, c.want)
		}
	}
}

func TestTemplateErrors(t *testing.T) {
	if _, err := CompileTemplate(`<a>{$x`); err == nil {
		t.Error("unbalanced template accepted")
	}
	if _, err := CompileTemplate(`<a>{unclosed</a>`); err == nil {
		t.Error("unterminated brace accepted")
	}
	tpl, err := CompileTemplate(`<a>{$missing.k}</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpl.Instantiate(NewEnv()); err == nil {
		t.Error("unbound template var should fail at instantiation")
	}
}

func TestSubscriptionStringRoundTrips(t *testing.T) {
	sub := MustParse(figure1)
	rendered := sub.String()
	// The canonical rendering must itself parse to the same structure.
	again, err := Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", rendered, err)
	}
	if len(again.For) != 2 || len(again.Where) != 4 || again.By[0].Name != "alertQoS" {
		t.Errorf("round trip lost structure: %s", again.String())
	}
}

func TestStripScheme(t *testing.T) {
	cases := map[string]string{
		"http://a.com":   "a.com",
		"https://b.com/": "b.com",
		"plain":          "plain",
		" s.com/dht ":    "s.com/dht",
	}
	for in, want := range cases {
		if got := stripScheme(in); got != want {
			t.Errorf("stripScheme(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEvalLetsMissingAttrSkips(t *testing.T) {
	sub := MustParse(`for $x in inCOM(<p>m</p>)
let $d := $x.responseTimestamp - $x.callTimestamp
where $d > 10
return $x by file "f"`)
	env := NewEnv()
	env.Bind("x", xmltree.Elem("alert")) // no timestamps
	if err := EvalLets(sub.Let, env); err != nil {
		t.Fatalf("missing attr in LET should not error: %v", err)
	}
	if _, bound := env.lookup("d"); bound {
		t.Error("d should stay unbound")
	}
	// The WHERE over the unbound LET var then errors (caller drops tuple).
	if _, err := EvalCondition(sub.Where[0], env); err == nil {
		t.Error("condition over unbound let var should error")
	}
}

func TestParseMultipleXMLArgsWithoutComma(t *testing.T) {
	// The paper juxtaposes <p> arguments without separators.
	sub := MustParse(`for $c in outCOM(<p>http://a.com</p><p>http://b.com</p>) return $c by file "f"`)
	al := sub.For[0].Source.(*AlerterSource)
	if len(al.Peers) != 2 {
		t.Errorf("peers = %v", al.Peers)
	}
}

func TestNonPeerXMLArgsPreserved(t *testing.T) {
	AlerterFuncs["rssCOM"] = "rss"
	sub := MustParse(`for $r in rssCOM(<p>portal.com</p><config depth="2"/>) return $r by file "f"`)
	al := sub.For[0].Source.(*AlerterSource)
	if len(al.Args) != 1 || al.Args[0].Label != "config" {
		t.Errorf("args = %v", al.Args)
	}
}

func TestSourceStringForms(t *testing.T) {
	sub := MustParse(`for $j in areRegistered(<p>s.com/dht</p>) for $c in inCOM($j) return $c by file "f"`)
	s := sub.String()
	if !strings.Contains(s, "areRegistered(<p>s.com/dht</p>)") || !strings.Contains(s, "inCOM($c") == strings.Contains(s, "inCOM($j)") {
		// inCOM($j) must render with its stream variable
		if !strings.Contains(s, "inCOM($j)") {
			t.Errorf("rendered = %s", s)
		}
	}
}

// TestBinaryStringKeepsParentheses: an arithmetic expression renders
// with the parentheses its tree needs and no others, and the rendering
// parses back to the same tree.
func TestBinaryStringKeepsParentheses(t *testing.T) {
	for src, want := range map[string]string{
		"($e.a - $e.b) * 2":                         "($e.a - $e.b) * 2",
		"$e.a - $e.b * 2":                           "$e.a - $e.b * 2",
		"$e.a - ($e.b - $e.c)":                      "$e.a - ($e.b - $e.c)",
		"($e.a - $e.b) - $e.c":                      "$e.a - $e.b - $e.c",
		"$e.a / ($e.b * 2)":                         "$e.a / ($e.b * 2)",
		"(($e.a))":                                  "$e.a",
		"$c1.responseTimestamp - $c1.callTimestamp": "$c1.responseTimestamp - $c1.callTimestamp",
		"2 * ($e.a + -1) / (3 - $e.b)":              "2 * ($e.a + -1) / (3 - $e.b)",
	} {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		got := e.String()
		if got != want {
			t.Errorf("%s renders %q, want %q", src, got, want)
		}
		again, err := ParseExpr(got)
		if err != nil {
			t.Fatalf("re-parse of %q: %v", got, err)
		}
		if !reflect.DeepEqual(again, e) {
			t.Errorf("%s: %q parses to another tree", src, got)
		}
	}
}
