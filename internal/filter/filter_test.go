package filter

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"p2pm/internal/xmltree"
	"p2pm/internal/xpath"
)

func simpleCond(attr, op, val string) Cond {
	o, n, ok := xpath.LexOp(op)
	if !ok || n != len(op) {
		panic("not a comparison operator: " + op)
	}
	return Cond{Attr: attr, Op: o, Value: val}
}

func TestFilterSimpleOnly(t *testing.T) {
	f := New()
	mustAdd(t, f, Subscription{ID: "hot", Simple: []Cond{simpleCond("temp", ">", "30")}})
	mustAdd(t, f, Subscription{ID: "paris", Simple: []Cond{simpleCond("city", "=", "paris")}})
	mustAdd(t, f, Subscription{ID: "hot-paris", Simple: []Cond{
		simpleCond("temp", ">", "30"), simpleCond("city", "=", "paris")}})

	got := mustMatch(t, f, `<m temp="35" city="paris"/>`)
	if fmt.Sprint(got) != "[hot paris hot-paris]" {
		t.Errorf("got %v", got)
	}
	got = mustMatch(t, f, `<m temp="20" city="paris"/>`)
	if fmt.Sprint(got) != "[paris]" {
		t.Errorf("got %v", got)
	}
	got = mustMatch(t, f, `<m temp="35"/>`)
	if fmt.Sprint(got) != "[hot]" {
		t.Errorf("got %v", got)
	}
}

func mustAdd(t *testing.T, f *Filter, s Subscription) {
	t.Helper()
	if err := f.Add(s); err != nil {
		t.Fatal(err)
	}
}

func mustMatch(t *testing.T, f *Filter, doc string) []string {
	t.Helper()
	got, err := f.Match(xmltree.MustParse(doc))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestFilterComplexGating(t *testing.T) {
	// Complex query is only evaluated when simple conditions pass.
	f := New()
	mustAdd(t, f, Subscription{
		ID:      "q",
		Simple:  []Cond{simpleCond("type", "=", "alert")},
		Complex: []*xpath.Path{xpath.MustCompile(`//c/d`)},
	})
	if got := mustMatch(t, f, `<m type="alert"><c><d/></c></m>`); len(got) != 1 {
		t.Errorf("got %v", got)
	}
	if got := mustMatch(t, f, `<m type="other"><c><d/></c></m>`); len(got) != 0 {
		t.Errorf("got %v", got)
	}
	if got := mustMatch(t, f, `<m type="alert"><c/></m>`); len(got) != 0 {
		t.Errorf("got %v", got)
	}
	st := f.Stats()
	if st.YFilterRuns != 2 || st.YFilterSkips != 1 {
		t.Errorf("runs=%d skips=%d, want 2/1", st.YFilterRuns, st.YFilterSkips)
	}
}

func TestFilterNoSimpleConditions(t *testing.T) {
	// Subscriptions without simple conditions are always active.
	f := New()
	mustAdd(t, f, Subscription{ID: "anyB", Complex: []*xpath.Path{xpath.MustCompile(`//b`)}})
	if got := mustMatch(t, f, `<a><b/></a>`); len(got) != 1 {
		t.Errorf("got %v", got)
	}
	if got := mustMatch(t, f, `<a><c/></a>`); len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

func TestFilterMultiPathConjunction(t *testing.T) {
	f := New()
	mustAdd(t, f, Subscription{ID: "both", Complex: []*xpath.Path{
		xpath.MustCompile(`//b`), xpath.MustCompile(`//c`)}})
	if got := mustMatch(t, f, `<a><b/><c/></a>`); len(got) != 1 {
		t.Errorf("got %v", got)
	}
	if got := mustMatch(t, f, `<a><b/></a>`); len(got) != 0 {
		t.Errorf("conjunction half-matched: %v", got)
	}
}

func TestFilterNonLinearFallback(t *testing.T) {
	// Interior-predicate paths can't go through YFilter; direct evaluation
	// must still give correct results.
	f := New()
	p := xpath.MustCompile(`//order[@status = "paid"]/item`)
	if p.IsLinear() {
		t.Fatal("test premise wrong: path should be non-linear")
	}
	mustAdd(t, f, Subscription{ID: "paid-items", Complex: []*xpath.Path{p}})
	if got := mustMatch(t, f, `<r><order status="paid"><item/></order></r>`); len(got) != 1 {
		t.Errorf("got %v", got)
	}
	if got := mustMatch(t, f, `<r><order status="open"><item/></order></r>`); len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

func TestFilterValidation(t *testing.T) {
	f := New()
	if err := f.Add(Subscription{}); err == nil {
		t.Error("empty subscription accepted")
	}
	if err := f.Add(Subscription{ID: "x"}); err == nil {
		t.Error("no conditions accepted")
	}
	if err := f.Add(Subscription{ID: "x", Simple: []Cond{{Attr: ""}}}); err == nil {
		t.Error("bad condition accepted")
	}
	if err := f.Add(Subscription{ID: "x", Complex: []*xpath.Path{nil}}); err == nil {
		t.Error("nil path accepted")
	}
}

func TestFilterAddReplaceRemove(t *testing.T) {
	f := New()
	mustAdd(t, f, Subscription{ID: "q", Simple: []Cond{simpleCond("a", "=", "1")}})
	if got := mustMatch(t, f, `<m a="1"/>`); len(got) != 1 {
		t.Fatal("initial subscription should match")
	}
	// Replace with a different condition.
	mustAdd(t, f, Subscription{ID: "q", Simple: []Cond{simpleCond("a", "=", "2")}})
	if f.Len() != 1 {
		t.Fatalf("Len = %d after replace", f.Len())
	}
	if got := mustMatch(t, f, `<m a="1"/>`); len(got) != 0 {
		t.Error("old definition still matching")
	}
	if got := mustMatch(t, f, `<m a="2"/>`); len(got) != 1 {
		t.Error("new definition not matching")
	}
	f.Remove("q")
	f.Remove("q") // idempotent
	if got := mustMatch(t, f, `<m a="2"/>`); len(got) != 0 {
		t.Error("removed subscription still matching")
	}
}

func TestFilterModesAgree(t *testing.T) {
	f := New()
	mustAdd(t, f, Subscription{ID: "s1", Simple: []Cond{simpleCond("k", "=", "v")}})
	mustAdd(t, f, Subscription{ID: "s2",
		Simple:  []Cond{simpleCond("k", "=", "v")},
		Complex: []*xpath.Path{xpath.MustCompile(`//b`)}})
	mustAdd(t, f, Subscription{ID: "s3", Complex: []*xpath.Path{xpath.MustCompile(`//c/d`)}})

	docs := []string{
		`<m k="v"><b/></m>`,
		`<m k="x"><b/><c><d/></c></m>`,
		`<m k="v"/>`,
		`<m><c><d/></c></m>`,
	}
	for _, d := range docs {
		doc := xmltree.MustParse(d)
		two, err1 := f.MatchMode(doc, ModeTwoStage)
		yfo, err2 := f.MatchMode(doc, ModeYFilterOnly)
		nai, err3 := f.MatchMode(doc, ModeNaive)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatal(err1, err2, err3)
		}
		if fmt.Sprint(two) != fmt.Sprint(nai) || fmt.Sprint(yfo) != fmt.Sprint(nai) {
			t.Errorf("doc %s: two=%v yfo=%v naive=%v", d, two, yfo, nai)
		}
	}
}

func TestFilterMatchSerializedSkipsBody(t *testing.T) {
	f := New()
	mustAdd(t, f, Subscription{ID: "simple", Simple: []Cond{simpleCond("k", "=", "v")}})
	// No complex subscriptions: bodies must never be parsed, even when
	// they are garbage.
	got, err := f.MatchSerialized(`<m k="v"><<<broken`)
	if err != nil || fmt.Sprint(got) != "[simple]" {
		t.Fatalf("got %v err %v", got, err)
	}
	st := f.Stats()
	if st.BodiesParsed != 0 || st.BodiesSkipped != 1 {
		t.Errorf("parsed=%d skipped=%d", st.BodiesParsed, st.BodiesSkipped)
	}
}

func TestFilterMatchSerializedParsesWhenComplexActive(t *testing.T) {
	f := New()
	mustAdd(t, f, Subscription{ID: "cx",
		Simple:  []Cond{simpleCond("k", "=", "v")},
		Complex: []*xpath.Path{xpath.MustCompile(`//b`)}})
	got, err := f.MatchSerialized(`<m k="v"><b/></m>`)
	if err != nil || fmt.Sprint(got) != "[cx]" {
		t.Fatalf("got %v err %v", got, err)
	}
	if st := f.Stats(); st.BodiesParsed != 1 {
		t.Errorf("parsed=%d", st.BodiesParsed)
	}
	// Simple conditions fail: body (broken here) untouched.
	if _, err := f.MatchSerialized(`<m k="x"><broken`); err != nil {
		t.Fatalf("body should not be parsed: %v", err)
	}
}

// TestFilterLazyAXML reproduces the Section 4 scenario: a document carries
// an sc call to storage@site; a subscription whose simple conditions fail
// must never trigger the call, while one whose simple conditions pass
// materializes and matches //c/d.
func TestFilterLazyAXML(t *testing.T) {
	calls := 0
	f := New()
	// The materializer stands in for calling storage@site: each sc
	// element is replaced by the service's result.
	f.SetMaterializer(func(doc *xmltree.Node) (int, error) {
		n := 0
		for i, c := range doc.Children {
			if c.Label == "sc" && c.AttrOr("service", "") == "storage" {
				doc.Children[i] = xmltree.MustParse(`<c><d>data</d></c>`)
				n++
			}
		}
		calls += n
		return n, nil
	})
	mustAdd(t, f, Subscription{ID: "q",
		Simple: []Cond{
			simpleCond("attr1", "=", "x"),
			simpleCond("attr2", "=", "z"),
		},
		Complex: []*xpath.Path{xpath.MustCompile(`//c/d`)}})

	// attr2="y" != "z": simple conditions fail, no call performed.
	doc := xmltree.MustParse(`<root attr1="x" attr2="y"><sc service="storage" address="site"><parameters/></sc></root>`)
	if got := mustMatch(t, f, doc.String()); len(got) != 0 {
		t.Errorf("got %v", got)
	}
	if calls != 0 {
		t.Fatalf("service called %d times despite failed simple conditions", calls)
	}

	// attr2="z": simple conditions pass, call performed, query matches.
	doc2 := xmltree.MustParse(`<root attr1="x" attr2="z"><sc service="storage" address="site"><parameters/></sc></root>`)
	if got := mustMatch(t, f, doc2.String()); len(got) != 1 {
		t.Errorf("got %v", got)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
}

func TestFilterMaterializerError(t *testing.T) {
	f := New()
	f.SetMaterializer(func(*xmltree.Node) (int, error) { return 0, fmt.Errorf("boom") })
	mustAdd(t, f, Subscription{ID: "q", Complex: []*xpath.Path{xpath.MustCompile(`//b`)}})
	if _, err := f.Match(xmltree.MustParse(`<a><b/></a>`)); err == nil {
		t.Error("materializer error swallowed")
	}
}

func TestFilterSharedConditionsAcrossSubscriptions(t *testing.T) {
	// Many subscriptions sharing one condition: a matching document
	// reports all of them; condition is evaluated once (preFilter) per
	// document, not per subscription.
	f := New()
	for i := 0; i < 50; i++ {
		mustAdd(t, f, Subscription{ID: fmt.Sprintf("s%02d", i),
			Simple: []Cond{simpleCond("shared", "=", "yes")}})
	}
	got := mustMatch(t, f, `<m shared="yes"/>`)
	if len(got) != 50 {
		t.Fatalf("got %d matches", len(got))
	}
	if st := f.Stats(); st.PreFilterEvals != 1 {
		t.Errorf("PreFilterEvals = %d, want 1 (shared condition interned once)", st.PreFilterEvals)
	}
}

func TestFilterDumpAES(t *testing.T) {
	f := New()
	mustAdd(t, f, Subscription{ID: "a", Simple: []Cond{simpleCond("x", "=", "1"), simpleCond("y", "=", "2")}})
	dump := f.DumpAES()
	if !strings.Contains(dump, `@x = "1"`) || !strings.Contains(dump, "H[") {
		t.Errorf("dump = %s", dump)
	}
}

func TestFilterStatsAccumulate(t *testing.T) {
	f := New()
	mustAdd(t, f, Subscription{ID: "q", Simple: []Cond{simpleCond("a", "=", "1")}})
	mustMatch(t, f, `<m a="1"/>`)
	mustMatch(t, f, `<m a="2"/>`)
	st := f.Stats()
	if st.Docs != 2 || st.MatchesReported != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// Property: on random documents and random subscription sets, the
// two-stage pipeline agrees exactly with naive per-subscription
// evaluation. This is the core correctness property of Section 4.
func TestQuickTwoStageAgreesWithNaive(t *testing.T) {
	complexPool := []string{`//a`, `//b/c`, `/a/b`, `//d`, `//c[@k1 = "v1"]`}
	f := func(seed int64) bool {
		rnd := newRand(seed)
		fl := New()
		n := 1 + rnd.Intn(10)
		for i := 0; i < n; i++ {
			var s Subscription
			s.ID = fmt.Sprintf("s%d", i)
			for c := 0; c < rnd.Intn(3); c++ {
				s.Simple = append(s.Simple, Cond{
					Attr:  "k" + string(rune('0'+rnd.Intn(3))),
					Op:    xpath.OpEq,
					Value: "v" + string(rune('0'+rnd.Intn(3))),
				})
			}
			for c := 0; c < rnd.Intn(2); c++ {
				s.Complex = append(s.Complex, xpath.MustCompile(complexPool[rnd.Intn(len(complexPool))]))
			}
			if len(s.Simple) == 0 && len(s.Complex) == 0 {
				s.Simple = append(s.Simple, Cond{Attr: "k0", Op: xpath.OpEq, Value: "v0"})
			}
			if err := fl.Add(s); err != nil {
				return false
			}
		}
		for d := 0; d < 5; d++ {
			doc := genTree(rnd, 4)
			two, err1 := fl.MatchMode(doc, ModeTwoStage)
			nai, err2 := fl.MatchMode(doc, ModeNaive)
			if err1 != nil || err2 != nil || fmt.Sprint(two) != fmt.Sprint(nai) {
				t.Logf("seed=%d doc=%s two=%v naive=%v", seed, doc, two, nai)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
