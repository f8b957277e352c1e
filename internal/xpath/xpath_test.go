package xpath

import (
	"strings"
	"testing"
	"testing/quick"

	"p2pm/internal/xmltree"
)

func doc(s string) *xmltree.Node { return xmltree.MustParse(s) }

func TestCompileShapes(t *testing.T) {
	for _, src := range []string{
		`//a//b`,
		`alert[@callMethod = "GetTemperature"]`,
		`//c/d`,
		`/Stream[@PeerId = $p1][Operator/inCom]`,
		`/Stream[Operator/Filter][Operands/Operand[@OPeerId=$p1][@OStreamId=$s1]]`,
		`/Stream[Operator/Join][Operands/Operand[@OPeerId="p1"][@OStreamId="s3"]][Operands/Operand[@OPeerId="p2"][@OStreamId="s2"]]`,
		`a/b/@id`,
		`a/text()`,
		`*[@x != 3]`,
		`item[@n >= 10]`,
	} {
		if _, err := Compile(src); err != nil {
			t.Errorf("Compile(%q): %v", src, err)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	for _, src := range []string{
		``,
		`/`,
		`a[`,
		`a[]`,
		`a[@]`,
		`a[@x =]`,
		`a[@x ? 3]`,
		`a[@x = "unterminated]`,
		`a]b`,
		`a[/rooted]`,
		`a[@x = $]`,
	} {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestDescendantMatch(t *testing.T) {
	d := doc(`<r><a><x/><b><c/></b></a><b/></r>`)
	if !MustCompile(`//a//b`).Matches(d, nil) {
		t.Error("//a//b should match")
	}
	if MustCompile(`//c//b`).Matches(d, nil) {
		t.Error("//c//b should not match")
	}
	if !MustCompile(`//b/c`).Matches(d, nil) {
		t.Error("//b/c should match")
	}
}

func TestRootedVsRelative(t *testing.T) {
	d := doc(`<Stream><Operator><inCom/></Operator></Stream>`)
	if !MustCompile(`/Stream`).Matches(d, nil) {
		t.Error("/Stream should match the root element")
	}
	if MustCompile(`/Operator`).Matches(d, nil) {
		t.Error("/Operator should not match below root")
	}
	// Relative path from root's children:
	if !MustCompile(`Operator/inCom`).Matches(d, nil) {
		t.Error("relative Operator/inCom should match")
	}
}

func TestWildcard(t *testing.T) {
	d := doc(`<r><a id="1"/><b id="2"/></r>`)
	vals := MustCompile(`*/@id`).Values(d, nil)
	if strings.Join(vals, ",") != "1,2" {
		t.Errorf("vals = %v", vals)
	}
}

func TestAttrPredicates(t *testing.T) {
	d := doc(`<r><alert callMethod="GetTemperature" callee="http://meteo.com"/><alert callMethod="Other"/></r>`)
	q := MustCompile(`alert[@callMethod = "GetTemperature"]`)
	got := q.SelectNodes(d, nil)
	if len(got) != 1 {
		t.Fatalf("got %d nodes", len(got))
	}
	if v, _ := got[0].Attr("callee"); v != "http://meteo.com" {
		t.Errorf("selected wrong node")
	}
}

func TestNumericPredicates(t *testing.T) {
	d := doc(`<r><it n="5"/><it n="10"/><it n="30"/></r>`)
	cases := []struct {
		q    string
		want int
	}{
		{`it[@n > 10]`, 1},
		{`it[@n >= 10]`, 2},
		{`it[@n < 10]`, 1},
		{`it[@n <= 10]`, 2},
		{`it[@n = 10]`, 1},
		{`it[@n != 10]`, 2},
	}
	for _, c := range cases {
		if got := len(MustCompile(c.q).SelectNodes(d, nil)); got != c.want {
			t.Errorf("%s: got %d want %d", c.q, got, c.want)
		}
	}
}

func TestExistencePredicate(t *testing.T) {
	d := doc(`<r><Stream PeerId="p1"><Operator><inCom/></Operator></Stream><Stream PeerId="p1"/></r>`)
	q := MustCompile(`Stream[@PeerId = "p1"][Operator/inCom]`)
	if got := len(q.SelectNodes(d, nil)); got != 1 {
		t.Errorf("got %d matches, want 1", got)
	}
}

func TestVariableBindings(t *testing.T) {
	d := doc(`<db><Stream PeerId="p1" StreamId="s1"/><Stream PeerId="p2" StreamId="s2"/></db>`)
	q := MustCompile(`Stream[@PeerId = $p][@StreamId = $s]`)
	if len(q.SelectNodes(d, Bindings{"p": "p2", "s": "s2"})) != 1 {
		t.Error("binding p2/s2 should match one stream")
	}
	if len(q.SelectNodes(d, Bindings{"p": "p2", "s": "s1"})) != 0 {
		t.Error("mismatched binding should match nothing")
	}
	if len(q.SelectNodes(d, nil)) != 0 {
		t.Error("unresolved variable should match nothing")
	}
}

// TestPaperReuseQueries exercises the three discovery queries from
// Section 5 verbatim against a small stream-definition database.
func TestPaperReuseQueries(t *testing.T) {
	db := doc(`<db>
	  <Stream PeerId="p1" StreamId="s1"><Operator><inCom/></Operator><Operands/></Stream>
	  <Stream PeerId="p1" StreamId="s3"><Operator><Filter/></Operator>
	    <Operands><Operand OPeerId="p1" OStreamId="s1"/></Operands></Stream>
	  <Stream PeerId="p2" StreamId="s2"><Operator><outCom/></Operator><Operands/></Stream>
	  <Stream PeerId="p3" StreamId="s9"><Operator><Join/></Operator>
	    <Operands><Operand OPeerId="p1" OStreamId="s3"/><Operand OPeerId="p2" OStreamId="s2"/></Operands></Stream>
	</db>`)
	q1 := MustCompile(`/db/Stream[@PeerId = $p1][Operator/inCom]`)
	got := q1.SelectNodes(db, Bindings{"p1": "p1"})
	if len(got) != 1 || got[0].AttrOr("StreamId", "") != "s1" {
		t.Fatalf("q1 got %v", got)
	}
	q2 := MustCompile(`/db/Stream[Operator/Filter][Operands/Operand[@OPeerId=$p1][@OStreamId=$s1]]`)
	got = q2.SelectNodes(db, Bindings{"p1": "p1", "s1": "s1"})
	if len(got) != 1 || got[0].AttrOr("StreamId", "") != "s3" {
		t.Fatalf("q2 got %v", got)
	}
	q3 := MustCompile(`/db/Stream[Operator/Join][Operands/Operand[@OPeerId=$p1][@OStreamId=$s3]][Operands/Operand[@OPeerId=$p2][@OStreamId=$s2]]`)
	got = q3.SelectNodes(db, Bindings{"p1": "p1", "s3": "s3", "p2": "p2", "s2": "s2"})
	if len(got) != 1 || got[0].AttrOr("StreamId", "") != "s9" {
		t.Fatalf("q3 got %v", got)
	}
}

func TestValuesAndFirst(t *testing.T) {
	d := doc(`<r><p id="1">one</p><p id="2">two</p></r>`)
	if vals := MustCompile(`p/@id`).Values(d, nil); strings.Join(vals, ",") != "1,2" {
		t.Errorf("ids = %v", vals)
	}
	if vals := MustCompile(`p/text()`).Values(d, nil); strings.Join(vals, ",") != "one,two" {
		t.Errorf("texts = %v", vals)
	}
	v, ok := MustCompile(`p`).First(d, nil)
	if !ok || v != "one" {
		t.Errorf("First = %q, %v", v, ok)
	}
	if _, ok := MustCompile(`zz`).First(d, nil); ok {
		t.Error("First on no match should report false")
	}
}

func TestTextPredicate(t *testing.T) {
	d := doc(`<r><p>alpha</p><p>beta</p></r>`)
	q := MustCompile(`p[text() = "beta"]`)
	if len(q.SelectNodes(d, nil)) != 1 {
		t.Error("text() predicate failed")
	}
}

func TestNestedElementValueComparison(t *testing.T) {
	d := doc(`<r><item><price>9</price></item><item><price>20</price></item></r>`)
	q := MustCompile(`item[price > 10]`)
	if got := len(q.SelectNodes(d, nil)); got != 1 {
		t.Errorf("got %d, want 1", got)
	}
}

func TestIsLinear(t *testing.T) {
	cases := []struct {
		q    string
		want bool
	}{
		{`//a//b`, true},
		{`a/b/c`, true},
		{`a/b[@x = "1"]`, true},          // predicate on final step ok
		{`a[@x = "1"]/b`, false},         // predicate mid-path
		{`a/b/@id`, true},                // trailing attr ok
		{`a[Operator/inCom]/b`, false},   // structural predicate mid-path
		{`/Stream[Operator/Join]`, true}, // final step predicate
	}
	for _, c := range cases {
		if got := MustCompile(c.q).IsLinear(); got != c.want {
			t.Errorf("IsLinear(%s) = %v want %v", c.q, got, c.want)
		}
	}
}

func TestStringRendersSource(t *testing.T) {
	src := `/Stream[@PeerId = $p1][Operator/inCom]`
	if got := MustCompile(src).String(); got != src {
		t.Errorf("String = %q", got)
	}
}

// TestRelStringRendering covers the synthesized rendering path (paths
// built without source text, as predicates are during evaluation).
func TestRelStringRendering(t *testing.T) {
	cases := []string{
		`//a//b`,
		`a/b/@id`,
		`a[@x = "1"]/text()`,
		`/Stream[Operator/Join][@n >= 10]`,
		`*[@k != $v]`,
		`item[price > 10.5]`,
	}
	for _, src := range cases {
		p := MustCompile(src)
		// Clear the preserved source so String falls back to relString,
		// then check the rendering reparses to an equivalent query.
		rendered := p.relString()
		again, err := Compile(rendered)
		if err != nil {
			t.Fatalf("%s rendered as %q which fails to parse: %v", src, rendered, err)
		}
		if again.relString() != rendered {
			t.Errorf("%s: rendering not fixed-point: %q vs %q", src, again.relString(), rendered)
		}
	}
}

func TestCompilePrefix(t *testing.T) {
	p, n, err := CompilePrefix(`/alert[@m = "Q"]/x and more text`)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != `/alert[@m = "Q"]/x` {
		t.Errorf("prefix = %q", p.String())
	}
	if n != len(`/alert[@m = "Q"]/x`) {
		t.Errorf("consumed = %d", n)
	}
	if _, _, err := CompilePrefix(`[broken`); err == nil {
		t.Error("bad prefix accepted")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile should panic on bad input")
		}
	}()
	MustCompile(`a[`)
}

func TestCompareAllOpsStringFallback(t *testing.T) {
	// Lexicographic fallback for every operator.
	if !Compare("abc", OpLe, "abd") || !Compare("abd", OpGe, "abc") ||
		Compare("abc", OpGt, "abd") || !Compare("abc", OpLt, "abd") {
		t.Error("string ordering wrong")
	}
	// Numeric on both sides for every operator.
	if !Compare("2", OpNe, "3") || !Compare("2", OpLe, "2") || !Compare("2", OpGe, "2") {
		t.Error("numeric comparisons wrong")
	}
	// OpExists through Compare is always false (not a comparison).
	if Compare("x", OpExists, "x") {
		t.Error("OpExists should not compare")
	}
}

func TestCompareNumericVsString(t *testing.T) {
	if !Compare("10", OpGt, "9") {
		t.Error("numeric 10 > 9")
	}
	if Compare("10", OpGt, "9x") && false {
		t.Error("unreachable")
	}
	// String comparison: "10" < "9" lexicographically.
	if !Compare("10", OpLt, "9x") {
		t.Error("lexicographic fallback expected")
	}
	if !Compare("abc", OpEq, "abc") || Compare("abc", OpNe, "abc") {
		t.Error("string equality wrong")
	}
}

func TestDocumentOrderSelection(t *testing.T) {
	d := doc(`<r><a><x>1</x></a><x>2</x><b><x>3</x></b></r>`)
	vals := MustCompile(`//x`).Values(d, nil)
	if strings.Join(vals, ",") != "1,2,3" {
		t.Errorf("order = %v", vals)
	}
}

// Property: Matches, which decides existence without enumerating, is
// consistent with len(SelectNodes) > 0; and MatchesDocument reads a query
// as Matches does from a document node placed above the tree.
func TestQuickMatchesConsistent(t *testing.T) {
	queries := []*Path{
		MustCompile(`//a`),
		MustCompile(`//a/b`),
		MustCompile(`a//b`),
		MustCompile(`//b[@k0 = "v0"]`),
		MustCompile(`*/*`),
		MustCompile(`/a/b`),
		MustCompile(`/*`),
		MustCompile(`//a/@k1`),
		MustCompile(`/a//c/text()`),
		MustCompile(`//a[b/c]//d`),
		MustCompile(`b/@k2`),
	}
	f := func(seed int64) bool {
		tree := genTree(newRand(seed), 4)
		above := xmltree.Elem("#doc", tree)
		for _, q := range queries {
			if q.Matches(tree, nil) != (len(q.SelectNodes(tree, nil)) > 0) {
				t.Logf("seed=%d query=%s tree=%s", seed, q, tree)
				return false
			}
			want := q.Matches(tree, nil)
			if !q.Rooted {
				want = len(q.SelectNodes(above, nil)) > 0
			}
			if q.MatchesDocument(tree, nil) != want {
				t.Logf("seed=%d query=%s as document, tree=%s", seed, q, tree)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: descendant axis is a superset of any child-axis chain over the
// same labels.
func TestQuickDescendantSuperset(t *testing.T) {
	child := MustCompile(`a/b`)
	desc := MustCompile(`//a//b`)
	f := func(seed int64) bool {
		tree := genTree(newRand(seed), 4)
		if child.Matches(tree, nil) && !desc.Matches(tree, nil) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func genTree(rnd *lcg, depth int) *xmltree.Node {
	labels := []string{"a", "b", "c", "d"}
	n := xmltree.Elem(labels[rnd.Intn(len(labels))])
	for i := 0; i < rnd.Intn(3); i++ {
		n.SetAttr("k"+string(rune('0'+rnd.Intn(3))), "v"+string(rune('0'+rnd.Intn(3))))
	}
	if depth > 0 {
		for i := 0; i < rnd.Intn(4); i++ {
			n.Append(genTree(rnd, depth-1))
		}
	}
	return n
}

type lcg struct{ state uint64 }

func newRand(seed int64) *lcg { return &lcg{state: uint64(seed)*2862933555777941757 + 3037000493} }

func (l *lcg) Intn(n int) int {
	l.state = l.state*6364136223846793005 + 1442695040888963407
	return int((l.state >> 33) % uint64(n))
}
