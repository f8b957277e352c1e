package filter

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"p2pm/internal/xmltree"
	"p2pm/internal/xpath"
)

// TestIndexedPreFilterAgreesWithEval: the hash index reports exactly the
// conditions a brute-force Cond.Eval over every registered condition
// reports, for every operator and for constants and document values that
// are numbers, near-numbers and plain strings.
func TestIndexedPreFilterAgreesWithEval(t *testing.T) {
	values := []string{
		"1", "1.0", " 1 ", "+1", "01", "1e0", "10", "2", "-0", "0", ".5", "0.5",
		"NaN", "Inf", "-inf", "0x10", "1_0", "", " ", "v07", "v7", "paris", "Paris",
	}
	ops := []xpath.CmpOp{xpath.OpEq, xpath.OpNe, xpath.OpLt, xpath.OpLe, xpath.OpGt, xpath.OpGe}
	r := newCondRegistry()
	for _, attr := range []string{"a", "b"} {
		for _, op := range ops {
			for _, v := range values {
				r.acquire([]Cond{{Attr: attr, Op: op, Value: v}})
			}
		}
	}
	check := func(when string) {
		t.Helper()
		for _, va := range values {
			for _, vb := range []string{"1", "paris"} {
				attrs := []xmltree.Attr{{Name: "a", Value: va}, {Name: "b", Value: vb}, {Name: "other", Value: "1"}}
				got, _ := r.preFilter(attrs, nil)
				var want []int
				for c, id := range r.ids {
					for _, a := range attrs {
						if a.Name == c.Attr && c.Eval(a.Value) {
							want = append(want, id)
						}
					}
				}
				sort.Ints(want)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s, a=%q b=%q: index found %d conditions, Eval %d\n index %v\n eval  %v",
						when, va, vb, len(got), len(want), got, want)
				}
			}
		}
	}
	check("all registered")
	// Dropping every other condition must unfile exactly those.
	for id := 0; id < len(r.conds); id += 2 {
		r.release([]int{id})
	}
	check("half released")
	for id := 1; id < len(r.conds); id += 2 {
		r.release([]int{id})
	}
	if len(r.ids) != 0 || len(r.byAttr) != 0 {
		t.Errorf("registry not empty after releasing everything: %d ids, %d attribute indexes", len(r.ids), len(r.byAttr))
	}
}

func TestAESDeletePrunes(t *testing.T) {
	a := NewAES()
	for h, seq := range [][]int{{1, 2}, {1, 2}, {3}, {1, 3}, {1}, {1, 2, 4}} {
		if err := a.Insert(seq, h); err != nil {
			t.Fatal(err)
		}
	}
	name := func(id int) string { return fmt.Sprintf("C%d", id) }
	if a.Delete([]int{1, 2}, 5) || a.Delete([]int{2}, 0) || a.Delete([]int{1, 2, 4, 5}, 5) || a.Delete(nil, 0) {
		t.Error("Delete reported a marking that was never inserted")
	}
	// {1,2,4} goes: its table H[C1,C2] empties and is pruned, the cell C2
	// in H[C1] stays for the two subscriptions still marked there.
	if !a.Delete([]int{1, 2, 4}, 5) || !a.Delete([]int{1, 2}, 0) {
		t.Fatal("Delete missed an inserted marking")
	}
	fresh := NewAES()
	for h, seq := range map[int][]int{1: {1, 2}, 2: {3}, 3: {1, 3}, 4: {1}} {
		if err := fresh.Insert(seq, h); err != nil {
			t.Fatal(err)
		}
	}
	if a.Dump(name) != fresh.Dump(name) || a.Size() != fresh.Size() {
		t.Errorf("after Delete (size %d):\n%swant (size %d):\n%s", a.Size(), a.Dump(name), fresh.Size(), fresh.Dump(name))
	}
}

func TestYFilterRemovePrunes(t *testing.T) {
	queries := []string{`/a/b/c`, `/a/b`, `//x/*/y[@k = "v"]`, `/a//d/@id`, `/a/b/c`}
	y := NewYFilter()
	paths := make([]*xpath.Path, len(queries))
	for i, q := range queries {
		paths[i] = xpath.MustCompile(q)
		if err := y.Add(i, paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	if y.Remove(7, paths[0]) || y.Remove(0, xpath.MustCompile(`/a/zz`)) {
		t.Error("Remove reported a query that was never added")
	}
	// Removing the last user of the //x/*/y branch and of /a//d prunes
	// both; /a/b/c loses one of its two queries and keeps its states.
	for _, i := range []int{2, 3, 0} {
		if !y.Remove(i, paths[i]) {
			t.Fatalf("Remove(%d) missed", i)
		}
	}
	fresh := yf(t, `/a/b`)
	if err := fresh.Add(4, paths[4]); err != nil {
		t.Fatal(err)
	}
	if y.States() != fresh.States() || y.Queries() != 2 {
		t.Errorf("States = %d, Queries = %d; a fresh build has %d states, 2 queries", y.States(), y.Queries(), fresh.States())
	}
	if got := matchAll(y, `<a><b><c/></b><x><q><y k="v"/></q></x></a>`); fmt.Sprint(got) != "[1 4]" {
		t.Errorf("after Remove matched %v, want [1 4]", got)
	}
}

// TestIncrementalEqualsFresh drives a filter through random Add, replace
// and Remove sequences — few enough distinct conditions and paths that
// the last user of a condition, of an AES table and of a shared NFA
// prefix keeps leaving — and compares it, step by step, with a filter
// built from scratch out of the same live subscriptions: the same matches
// in the same order, and the same structure sizes. The run is long enough
// to cross several compactions.
func TestIncrementalEqualsFresh(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	pathPool := []string{`//a`, `//a/b`, `/a/b/c`, `//b//d`, `/a/*/c`, `//c[@k1 = "v1"]`, `//d/@k0`, `//a[@k0 = "v0"]/b`}
	ops := []xpath.CmpOp{xpath.OpEq, xpath.OpEq, xpath.OpEq, xpath.OpNe, xpath.OpLt, xpath.OpGe}
	draw := func(id string) Subscription {
		s := Subscription{ID: id}
		for n := rnd.Intn(4); n > 0; n-- {
			s.Simple = append(s.Simple, Cond{
				Attr:  fmt.Sprintf("k%d", rnd.Intn(3)),
				Op:    ops[rnd.Intn(len(ops))],
				Value: []string{"v0", "v1", "v2", "1", "1.0", "2"}[rnd.Intn(6)],
			})
		}
		for n := rnd.Intn(3); n > 0; n-- {
			s.Complex = append(s.Complex, xpath.MustCompile(pathPool[rnd.Intn(len(pathPool))]))
		}
		if len(s.Simple)+len(s.Complex) == 0 {
			s.Complex = append(s.Complex, xpath.MustCompile(pathPool[0]))
		}
		return s
	}
	docs := make([]*xmltree.Node, 24)
	for i := range docs {
		docs[i] = genTree(newRand(int64(i)), 4)
		if i%3 == 0 {
			docs[i].SetAttr("k0", []string{"1", "1.0", "2", "x"}[i/3%4])
		}
	}

	inc := New()
	var order []string // live IDs in registration order: what a fresh filter is built from
	defs := map[string]Subscription{}
	for step := 0; step < 1500; step++ {
		id := fmt.Sprintf("s%02d", rnd.Intn(40))
		_, known := defs[id]
		if known && rnd.Intn(3) == 0 {
			inc.Remove(id)
			delete(defs, id)
			for i, x := range order {
				if x == id {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
		} else {
			s := draw(id)
			mustAdd(t, inc, s)
			defs[id] = s
			if !known {
				order = append(order, id)
			}
		}
		if step%7 != 0 {
			continue
		}
		fresh := New()
		for _, id := range order {
			mustAdd(t, fresh, defs[id])
		}
		if inc.Len() != fresh.Len() || inc.aes.Size() != fresh.aes.Size() ||
			inc.YFilterStates() != fresh.YFilterStates() || inc.yf.Queries() != fresh.yf.Queries() ||
			len(inc.reg.ids) != len(fresh.reg.ids) || len(inc.reg.byAttr) != len(fresh.reg.byAttr) {
			t.Fatalf("step %d: incremental filter has %d subs, AES size %d, %d NFA states, %d queries, %d conditions; fresh %d, %d, %d, %d, %d",
				step, inc.Len(), inc.aes.Size(), inc.YFilterStates(), inc.yf.Queries(), len(inc.reg.ids),
				fresh.Len(), fresh.aes.Size(), fresh.YFilterStates(), fresh.yf.Queries(), len(fresh.reg.ids))
		}
		for _, doc := range docs {
			got, err1 := inc.Match(doc)
			want, err2 := fresh.Match(doc)
			naive, err3 := fresh.MatchMode(doc, ModeNaive)
			if err1 != nil || err2 != nil || err3 != nil {
				t.Fatal(err1, err2, err3)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(got) != fmt.Sprint(naive) {
				t.Fatalf("step %d doc %s:\n incremental %v\n fresh       %v\n naive       %v", step, doc, got, want, naive)
			}
		}
		// The garbage bound: retired slots never outnumber live ones by
		// more than the change that is about to trigger a compaction.
		if dead := len(inc.byHandle) - inc.Len(); dead > inc.Len()+1 {
			t.Fatalf("step %d: %d dead handle slots beside %d live subscriptions", step, dead, inc.Len())
		}
	}
	if n := inc.Stats().Compactions; n < 3 {
		t.Errorf("Compactions = %d; the sequence was meant to cross several", n)
	}
}

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool

// TestMatchSerializedAllocs pins what a match may allocate: its result,
// nothing per condition, table or query, and nothing to read the
// document. On the first-tag-only path the first tag is read into the
// scratch; on the parsed path the body is parsed into the scratch's
// chunks too, which the pooled scratch keeps between matches.
func TestMatchSerializedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops entries at random, so the scratch is rebuilt")
	}
	f := New()
	for i := 0; i < 300; i++ {
		s := Subscription{ID: fmt.Sprintf("s%03d", i), Simple: []Cond{
			{Attr: "city", Op: xpath.OpEq, Value: fmt.Sprintf("c%d", i%10)},
			{Attr: "temp", Op: xpath.OpGt, Value: fmt.Sprint(i % 40)},
		}}
		if i%10 == 0 { // only city c0 reaches the complex stage
			s.Complex = []*xpath.Path{xpath.MustCompile(fmt.Sprintf(`//body/op%d[@p = "x"]`, i%30))}
		}
		mustAdd(t, f, s)
	}
	const body = `<body><op0 p="x"/><op3 p="y"/><op6/><op9 p="x"/></body>`
	firstTagOnly := `<alert city="c1" temp="35" src="http://meteo.com">` + body + `</alert>`
	parsed := `<alert city="c0" temp="35" src="http://meteo.com">` + body + `</alert>`
	before := f.Stats()
	for _, raw := range []string{firstTagOnly, parsed} {
		if ids, err := f.MatchSerialized(raw); err != nil || len(ids) == 0 {
			t.Fatalf("MatchSerialized(%s) = %v, %v", raw, ids, err)
		}
	}
	if st := f.Stats(); st.BodiesSkipped-before.BodiesSkipped != 1 || st.BodiesParsed-before.BodiesParsed != 1 {
		t.Fatalf("test premise wrong: %d bodies skipped, %d parsed, want 1 and 1", st.BodiesSkipped, st.BodiesParsed)
	}
	if n := testing.AllocsPerRun(200, func() { f.MatchSerialized(firstTagOnly) }); n != 1 {
		t.Errorf("first-tag-only match: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { f.MatchSerialized(parsed) }); n != 1 {
		t.Errorf("parsed match: %v allocs, want 1", n)
	}
}

// TestPooledScratchHoldsNoDocument: once MatchSerialized returns, the
// scratch it gives back to the pool keeps the chunks its body was parsed
// into, for the next match, but no pointer into the document: no node,
// attribute or child in its Builder and no first-tag attribute.
func TestPooledScratchHoldsNoDocument(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops entries at random")
	}
	f := New()
	mustAdd(t, f, Subscription{ID: "s",
		Simple:  []Cond{{Attr: "city", Op: xpath.OpEq, Value: "c0"}},
		Complex: []*xpath.Path{xpath.MustCompile(`//body/op0`)},
	})
	const raw = `<alert city="c0" src="http://meteo.com"><body><op0 p="x"/><op3>t</op3></body></alert>`
	runtime.GC() // one inside the loop below would empty the pool
	for i := 0; i < 4; i++ {
		if ids, err := f.MatchSerialized(raw); err != nil || len(ids) != 1 {
			t.Fatalf("MatchSerialized = %v, %v", ids, err)
		}
	}
	parsed := 0 // pooled scratches whose Builder has chunks
	for i := 0; i < 64; i++ {
		sc := getScratch() // drains the pool; fresh ones come last
		b := reflect.ValueOf(sc.tree)
		chunks := 0
		for k := 0; k < b.NumField(); k++ {
			chunk := b.Field(k)
			chunks += chunk.Cap()
			whole := chunk.Slice(0, chunk.Cap())
			for j := 0; j < whole.Len(); j++ {
				if !whole.Index(j).IsZero() {
					t.Fatalf("pooled scratch: Builder.%s[%d] = %v, want zero", b.Type().Field(k).Name, j, whole.Index(j))
				}
			}
		}
		for j, a := range sc.attrs[:cap(sc.attrs)] {
			if a != (xmltree.Attr{}) {
				t.Fatalf("pooled scratch: attrs[%d] = %v, want zero", j, a)
			}
		}
		if chunks > 0 {
			parsed++
		}
	}
	if parsed == 0 {
		t.Fatal("no pooled scratch had parsed a document: the test measured nothing")
	}
}
