package filter

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"p2pm/internal/xmltree"
	"p2pm/internal/xpath"
)

func yf(t *testing.T, queries ...string) *YFilter {
	t.Helper()
	y := NewYFilter()
	for i, q := range queries {
		if err := y.Add(i, xpath.MustCompile(q)); err != nil {
			t.Fatalf("Add(%s): %v", q, err)
		}
	}
	return y
}

func matchAll(y *YFilter, doc string) []int {
	return y.MatchAll(xmltree.MustParse(doc)).Matched
}

func TestYFilterChildAxis(t *testing.T) {
	y := yf(t, `/a/b`, `/a/c`, `/x/b`)
	got := matchAll(y, `<a><b/><z/></a>`)
	if fmt.Sprint(got) != "[0]" {
		t.Errorf("got %v", got)
	}
}

func TestYFilterDescendantAxis(t *testing.T) {
	y := yf(t, `//b`, `/a//c`, `//a//b`)
	got := matchAll(y, `<a><x><b/></x><x><y><c/></y></x></a>`)
	if fmt.Sprint(got) != "[0 1 2]" {
		t.Errorf("got %v", got)
	}
	got = matchAll(y, `<b/>`)
	if fmt.Sprint(got) != "[0]" {
		t.Errorf("root-level //b: got %v", got)
	}
}

func TestYFilterWildcard(t *testing.T) {
	y := yf(t, `/a/*/c`, `/*/b`)
	got := matchAll(y, `<a><b/><q><c/></q></a>`)
	if fmt.Sprint(got) != "[0 1]" {
		t.Errorf("got %v", got)
	}
}

func TestYFilterRepeatedLabelsSelfLoop(t *testing.T) {
	// Deep nesting of the same label must not blow up or miss matches.
	y := yf(t, `//a//a//a`)
	if got := matchAll(y, `<a><a><a/></a></a>`); fmt.Sprint(got) != "[0]" {
		t.Errorf("got %v", got)
	}
	if got := matchAll(y, `<a><a/></a>`); len(got) != 0 {
		t.Errorf("two levels should not match: %v", got)
	}
	deep := `<a><a><a><a><a><a><a/></a></a></a></a></a></a>`
	if got := matchAll(y, deep); fmt.Sprint(got) != "[0]" {
		t.Errorf("deep: got %v", got)
	}
}

func TestYFilterFinalStepPredicates(t *testing.T) {
	y := yf(t,
		`//alert[@callMethod = "GetTemperature"]`,
		`//alert[@callMethod = "Other"]`,
		`//item[price > 10]`,
	)
	got := matchAll(y, `<root><alert callMethod="GetTemperature"/><item><price>30</price></item></root>`)
	if fmt.Sprint(got) != "[0 2]" {
		t.Errorf("got %v", got)
	}
}

func TestYFilterTerminalAttrAndText(t *testing.T) {
	y := yf(t, `/a/b/@id`, `/a/c/text()`)
	got := matchAll(y, `<a><b id="1"/><c>hello</c></a>`)
	if fmt.Sprint(got) != "[0 1]" {
		t.Errorf("got %v", got)
	}
	got = matchAll(y, `<a><b/><c/></a>`)
	if len(got) != 0 {
		t.Errorf("missing attr/text matched: %v", got)
	}
}

func TestYFilterActivePruning(t *testing.T) {
	y := yf(t, `//a`, `//b`, `//c`)
	doc := xmltree.MustParse(`<r><a/><b/><c/></r>`)
	res := y.MatchActive(doc, map[int]bool{1: true})
	if fmt.Sprint(res.Matched) != "[1]" {
		t.Errorf("got %v", res.Matched)
	}
	if res := y.MatchActive(doc, map[int]bool{}); len(res.Matched) != 0 || res.Transitions != 0 {
		t.Errorf("empty active set should short-circuit: %+v", res)
	}
}

func TestYFilterPrefixSharing(t *testing.T) {
	// Queries sharing a prefix must share states: the automaton for
	// /w/x/y1../y100 has 2 shared prefix states + 100 leaves + start,
	// far fewer than 100 separate 3-state chains.
	y := NewYFilter()
	for i := 0; i < 100; i++ {
		if err := y.Add(i, xpath.MustCompile(fmt.Sprintf(`/w/x/y%d`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if y.States() != 1+2+100 {
		t.Errorf("States = %d, want 103", y.States())
	}
	if y.Queries() != 100 {
		t.Errorf("Queries = %d", y.Queries())
	}
}

func TestYFilterRejectsNonLinear(t *testing.T) {
	y := NewYFilter()
	if err := y.Add(0, xpath.MustCompile(`/a[@x = "1"]/b`)); err == nil {
		t.Error("interior predicate should be rejected")
	}
	if err := y.Add(0, xpath.MustCompile(`/@id`)); err == nil {
		t.Error("attribute-only path should be rejected")
	}
}

func TestYFilterStructuralFinalPredicate(t *testing.T) {
	y := yf(t, `/Stream[Operator/Join]`)
	if got := matchAll(y, `<Stream><Operator><Join/></Operator></Stream>`); len(got) != 1 {
		t.Errorf("got %v", got)
	}
	if got := matchAll(y, `<Stream><Operator><Filter/></Operator></Stream>`); len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

func TestYFilterDuplicateReporting(t *testing.T) {
	// A query that matches at several document positions is reported once.
	y := yf(t, `//b`)
	got := matchAll(y, `<a><b/><b/><c><b/></c></a>`)
	if fmt.Sprint(got) != "[0]" {
		t.Errorf("got %v", got)
	}
}

// Property: YFilter agrees with direct xpath evaluation on random trees
// and a fixed battery of linear queries.
func TestQuickYFilterAgreesWithXPath(t *testing.T) {
	queries := []string{
		`//a`, `//a/b`, `/a`, `/a//c`, `//b//d`, `/a/*/b`, `//c[@k0 = "v0"]`,
		`//a/@k1`, `//d//a//b`,
	}
	paths := make([]*xpath.Path, len(queries))
	y := NewYFilter()
	for i, q := range queries {
		paths[i] = xpath.MustCompile(q)
		if err := y.Add(i, paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	f := func(seed int64) bool {
		tree := genTree(newRand(seed), 5)
		res := y.MatchAll(tree)
		matched := make(map[int]bool)
		for _, q := range res.Matched {
			matched[q] = true
		}
		for i, p := range paths {
			want := p.MatchesDocument(tree, nil)
			if matched[i] != want {
				t.Logf("seed=%d query=%s yfilter=%v xpath=%v tree=%s",
					seed, queries[i], matched[i], want, tree)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
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

func sortedInts(xs []int) []int { out := append([]int(nil), xs...); sort.Ints(out); return out }
