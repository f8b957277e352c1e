package xmltree_test

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"p2pm/bench/gen"
	"p2pm/internal/alerters"
	"p2pm/internal/soap"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// benchDoc is the document BenchmarkXMLParse parses (the first draw of
// workload.DefaultFilterGen): 30 nodes, 14 attributes, 410 bytes.
const benchDoc = `<envelope a17="v04" a10="v01" a19="v06" a07="v06" a13="v04" a18="v04"><op00><op02 p1="x1"><op05 p2="x3"><call p1="x1">x</call><result>x</result></op05></op02><op06><op02><op13 p0="x2">x</op13><op05>x</op05><op07>x</op07></op02><op13 p1="x3"><op07>x</op07></op13><op17 p1="x2"><op17 p0="x0">x</op17><op02 p2="x0">x</op02></op17></op06><op17><detail><op01>x</op01><op05>x</op05></detail></op17></op00></envelope>`

// envelopeAlert is a WS alert with its SOAP envelope, as the runtime's
// tap builds it.
func envelopeAlert() *xmltree.Node {
	var out *xmltree.Node
	ws := alerters.NewWS("a", alerters.Inbound, true, nil, func(it stream.Item) { out = it.Tree })
	ws.Hook()(soap.Exchange{
		CallID: "call-7", Method: "GetTemp", Caller: "a.com", Callee: "http://meteo.com",
		CallTime: 1500000, ResponseTime: 1234567890,
		Params: xmltree.Elem("q", xmltree.ElemText("city", `Paris & "Orsay"`)).SetAttr("unit", "C"),
		Result: xmltree.ElemText("temp", "21"),
		Fault:  "slow <answer>",
	})
	return out
}

// checkAgainstRef holds Parse to the reference parser on one input: the
// same verdict, on failure the same offset and message, on success an
// Equal tree that serializes to the same bytes and whose root tag is what
// ReadFirstTag reads. It also holds a reused Builder to Parse.
func checkAgainstRef(t *testing.T, s string) {
	t.Helper()
	want, werr := refParse(s)
	got, gerr := xmltree.Parse(s)
	checkReparse(t, s, got, gerr)
	if werr != nil || gerr != nil {
		var we, ge *xmltree.ParseError
		if errors.As(gerr, &ge) && werr == nil && strings.Contains(ge.Msg, "nested deeper") {
			return // the one input class the reference accepts and Parse refuses
		}
		if !errors.As(werr, &we) || !errors.As(gerr, &ge) || *we != *ge {
			t.Fatalf("Parse(%q): error %v, reference %v", s, gerr, werr)
		}
		return
	}
	if !xmltree.Equal(got, want) {
		t.Fatalf("Parse(%q) = %s, reference %s", s, got, want)
	}
	if g, w := got.String(), want.String(); g != w {
		t.Fatalf("Parse(%q).String() = %q, reference %q", s, g, w)
	}
	label, attrs, err := xmltree.ReadFirstTag(s)
	if err != nil || label != got.Label || !slices.Equal(attrs, got.Attrs) {
		t.Fatalf("ReadFirstTag(%q) = %q %v %v, root is %q %v", s, label, attrs, err, got.Label, got.Attrs)
	}
}

// checkReparse parses s into a Builder that has just parsed a different
// document built from s — one its chunks hold, so they are reused — and
// requires what Parse gave: the same error and offset, or a tree with
// the same rendering and size. A reused chunk that still holds an
// earlier node's attribute, child or text fails here.
func checkReparse(t *testing.T, s string, want *xmltree.Node, werr error) {
	t.Helper()
	var b xmltree.Builder
	b.Parse(`<w k="v">` + s + `<x>t</x>` + s + `</w>`) //nolint:errcheck // valid or not, it fills the chunks
	got, gerr := b.Parse(s)
	if werr != nil || gerr != nil {
		var we, ge *xmltree.ParseError
		if !errors.As(werr, &we) || !errors.As(gerr, &ge) || *we != *ge {
			t.Fatalf("reused Builder.Parse(%q): error %v, Parse %v", s, gerr, werr)
		}
		return
	}
	if g, w := got.String(), want.String(); g != w || got.SerializedSize() != want.SerializedSize() {
		t.Fatalf("reused Builder.Parse(%q) = %q (size %d), Parse %q (size %d)", s, g, got.SerializedSize(), w, want.SerializedSize())
	}
}

func parseSeeds() []string {
	seeds := append(gen.NewFilter(1).Documents(8), gen.ItemXML(1, 4)...)
	return append(seeds,
		benchDoc,
		envelopeAlert().String(),
		`<p>s0</p>`,
		`<?xml version="1.0"?><!DOCTYPE a><!-- c --><a x='1' y = "2"> t <![CDATA[<raw> & ]]><?pi?><!-- c --><b/>&lt;&amp;&gt;&quot;&apos;&bogus;</a> <!-- end -->`,
		`<a sig="σ[$c.m=&quot;x&quot;]" q='a="b"'>k="v" and k='v' = <b eq="=">=</b></a>`,
		`<a>x<b/>y<c></c>z</a>`,
		"<a>\n  <b>\n    <c/>\n  </b>\n   \n</a>\n",
		`<a><b></a></b>`, `<a b="1" b="2"/>`, `<a b=1/>`, `<a b="1/>`, `<a><!-- x`, `<a><![CDATA[x`, `<a><?x`, `<a></a`, `<a/><b/>`, `<`, ``, `<a><!x></a>`,
		strings.Repeat("<a>", 40)+strings.Repeat("</a>", 40),
		`<a `+strings.Repeat(`k="v" `, 40)+`>`+strings.Repeat(`<b i="1">t</b>`, 40)+`</a>`,
	)
}

// FuzzParse: Parse must agree with the one-allocation-per-node parser it
// replaced (checkAgainstRef) on any input — verdict, error offset, tree
// and bytes — and so must a reused Builder's Parse.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkAgainstRef)
}

// TestParseMatchesReference runs the fuzz seeds, and every truncation of
// them, as a plain test.
func TestParseMatchesReference(t *testing.T) {
	for _, s := range parseSeeds() {
		for cut := 0; cut <= len(s); cut++ {
			checkAgainstRef(t, s[:cut])
		}
	}
}

// TestParseDepthBound: MaxDepth nested elements parse, one more is a
// ParseError at the offending start tag — not a stack overflow.
func TestParseDepthBound(t *testing.T) {
	nested := func(d int) string { return strings.Repeat("<a>", d) + strings.Repeat("</a>", d) }
	if _, err := xmltree.Parse(nested(xmltree.MaxDepth)); err != nil {
		t.Fatalf("depth %d: %v", xmltree.MaxDepth, err)
	}
	var pe *xmltree.ParseError
	if _, err := xmltree.Parse(nested(xmltree.MaxDepth + 1)); !errors.As(err, &pe) || pe.Offset != 3*xmltree.MaxDepth {
		t.Fatalf("depth %d: error %v, want a ParseError at offset %d", xmltree.MaxDepth+1, err, 3*xmltree.MaxDepth)
	}
	if _, err := xmltree.Parse(strings.Repeat("<a>", 1<<16)); !errors.As(err, &pe) {
		t.Fatalf("unclosed deep nesting: error %v, want a ParseError", err)
	}
}

func nodesOf(root *xmltree.Node) (all []*xmltree.Node) {
	root.Walk(func(n *xmltree.Node) bool { all = append(all, n); return true })
	return all
}

// TestParsedNodesDoNotAlias: the lists of a parsed, a reparsed, a
// Builder-built and a cloned tree are carved from shared chunks, so
// mutating any one node — SetAttr, Append, RemoveAttr, each past and
// within its list — must leave every other node's Attrs and Children as
// they were, and mutating a clone must never show in the original.
func TestParsedNodesDoNotAlias(t *testing.T) {
	built := func() *xmltree.Node {
		b := xmltree.NewBuilder(4, 2) // under-sized: the clone spills into later chunks
		root := b.Elem("r", 2, 3).SetAttr("a", "1").SetAttr("b", "2")
		return root.Append(b.Elem("k", 0, 1).Append(b.Text("t")), b.Elem("e", 0, 0), b.Clone(xmltree.MustParse(benchDoc)))
	}
	for name, build := range map[string]func() *xmltree.Node{
		"parsed": func() *xmltree.Node { return xmltree.MustParse(benchDoc) },
		"alert":  envelopeAlert,
		"built":  built,
		"cloned": func() *xmltree.Node { return xmltree.MustParse(benchDoc).Clone() },
		"reparsed": func() *xmltree.Node { // into chunks another shape used
			var b xmltree.Builder
			if _, err := b.Parse(`<a ` + strings.Repeat(`k="v" `, 40) + `>` + strings.Repeat(`<b i="1">t</b>`, 40) + `</a>`); err != nil {
				t.Fatal(err)
			}
			root, err := b.Parse(benchDoc)
			if err != nil {
				t.Fatal(err)
			}
			return root
		},
	} {
		want := build().String()
		for k := range nodesOf(build()) {
			orig := build()
			cl := orig.Clone()
			for _, root := range []*xmltree.Node{cl, orig} { // the clone first: orig must not notice
				nodes := nodesOf(root)
				attrs := make([][]xmltree.Attr, len(nodes))
				kids := make([][]*xmltree.Node, len(nodes))
				for i, n := range nodes {
					attrs[i], kids[i] = slices.Clone(n.Attrs), slices.Clone(n.Children)
				}
				n := nodes[k]
				n.SetAttr("zz1", "v").SetAttr("zz2", "v").Append(xmltree.Text("zz"), xmltree.Elem("zz"))
				if len(attrs[k]) > 0 {
					n.RemoveAttr(attrs[k][0].Name)
				}
				n.RemoveAttr("zz1")
				n.SetAttr("zz3", "v")
				for i, o := range nodes {
					if i != k && (!slices.Equal(o.Attrs, attrs[i]) || !slices.Equal(o.Children, kids[i])) {
						t.Fatalf("%s: mutating node %d <%s> changed node %d <%s>", name, k, n.Label, i, o.Label)
					}
				}
				if root == cl && orig.String() != want {
					t.Fatalf("%s: mutating node %d of a clone changed the original", name, k)
				}
			}
		}
	}
}

// allocBytes returns the bytes one call of fn allocates: the mean over a
// round of calls, and the least of five rounds, since the runtime's own
// goroutines allocate beside the test now and then.
func allocBytes(fn func()) float64 {
	const rounds, runs = 5, 200
	least := math.Inf(1)
	var before, after runtime.MemStats
	for r := 0; r < rounds; r++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return least
}

var sinkNode *xmltree.Node

// TestParseAllocs pins where a tree's memory comes from: the Builder's
// three sized chunks per document (71 allocations for benchDoc when every
// node and every list growth was its own), nothing for a parse into a
// Builder whose chunks hold the document, nothing for a first tag read
// into a reused slice, and for a two-node literal no more than the two
// nodes and one pointer it consists of.
func TestParseAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(200, func() { sinkNode, _ = xmltree.Parse(benchDoc) }); a != 3 {
		t.Errorf("Parse(benchDoc) allocates %v times, want 3", a)
	}
	for _, doc := range gen.NewFilter(1).Documents(64) {
		if a := testing.AllocsPerRun(20, func() { sinkNode, _ = xmltree.Parse(doc) }); a != 3 {
			t.Errorf("Parse allocates %v times, want 3, for %s", a, doc)
		}
	}
	var b xmltree.Builder
	if a := testing.AllocsPerRun(200, func() { sinkNode, _ = b.Parse(benchDoc) }); a != 0 {
		t.Errorf("Parse(benchDoc) into a Builder whose chunks hold it allocates %v times, want 0", a)
	}
	attrs := make([]xmltree.Attr, 0, 32)
	if a := testing.AllocsPerRun(200, func() { _, attrs, _ = xmltree.AppendFirstTag(attrs[:0], benchDoc) }); a != 0 {
		t.Errorf("AppendFirstTag into a reused slice allocates %v times, want 0", a)
	}
	if b := allocBytes(func() { sinkNode, _ = xmltree.Parse(`<p>s0</p>`) }); b > 168 {
		t.Errorf("Parse(<p>s0</p>) allocates %v bytes, want at most 168", b)
	}
	if parent := 3488.0; allocBytes(func() { sinkNode, _ = xmltree.Parse(benchDoc) }) > parent {
		t.Errorf("Parse(benchDoc) allocates more than the %v bytes of one allocation per node", parent)
	}
}
