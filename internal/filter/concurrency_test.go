package filter

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"p2pm/internal/xmltree"
	"p2pm/internal/xpath"
)

// TestFilterConcurrentMatchAndAdjust hammers the filter with concurrent
// matching and online subscription changes — the runtime behavior a
// long-lived monitoring peer exhibits. Run with -race for full value.
func TestFilterConcurrentMatchAndAdjust(t *testing.T) {
	f := New()
	for i := 0; i < 200; i++ {
		mustAdd(t, f, Subscription{
			ID:     fmt.Sprintf("base-%03d", i),
			Simple: []Cond{{Attr: fmt.Sprintf("a%02d", i%20), Op: xpath.OpEq, Value: "v"}},
		})
	}
	docs := make([]*xmltree.Node, 16)
	for i := range docs {
		d := xmltree.Elem("alert")
		d.SetAttr(fmt.Sprintf("a%02d", i), "v")
		d.Append(xmltree.Elem("body", xmltree.Elem("c")))
		docs[i] = d
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				doc := docs[(w+i)%len(docs)]
				if _, err := f.Match(doc); err != nil {
					t.Errorf("match: %v", err)
					return
				}
				// Parsed into the pooled scratch: each match its own.
				if _, err := f.MatchSerialized(doc.String()); err != nil {
					t.Errorf("match serialized: %v", err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("dyn-%d-%d", w, i)
				if err := f.Add(Subscription{
					ID:      id,
					Simple:  []Cond{{Attr: "a00", Op: xpath.OpEq, Value: "v"}},
					Complex: []*xpath.Path{xpath.MustCompile(`//c`)},
				}); err != nil {
					t.Errorf("add: %v", err)
					return
				}
				f.Remove(id)
			}
		}(w)
	}
	wg.Wait()
	if f.Len() != 200 {
		t.Errorf("Len = %d after churn", f.Len())
	}
}

// TestQuickMatchSerializedAgreesWithMatch: the serialized fast path must
// report exactly what the parsed path reports, for any document.
func TestQuickMatchSerializedAgreesWithMatch(t *testing.T) {
	f := New()
	mustAdd(t, f, Subscription{ID: "s1", Simple: []Cond{{Attr: "k0", Op: xpath.OpEq, Value: "v0"}}})
	mustAdd(t, f, Subscription{ID: "s2",
		Simple:  []Cond{{Attr: "k1", Op: xpath.OpEq, Value: "v1"}},
		Complex: []*xpath.Path{xpath.MustCompile(`//b`)}})
	mustAdd(t, f, Subscription{ID: "s3", Complex: []*xpath.Path{xpath.MustCompile(`//c//d`)}})

	prop := func(seed int64) bool {
		doc := genTree(newRand(seed), 4)
		parsed, err1 := f.Match(doc)
		serial, err2 := f.MatchSerialized(doc.String())
		if err1 != nil || err2 != nil {
			t.Logf("errs: %v %v", err1, err2)
			return false
		}
		return fmt.Sprint(parsed) == fmt.Sprint(serial)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDirectEvalAgreesWithNFA: the "virtually pruned" direct path
// and the shared NFA must agree for any active-set size. We force both
// paths by controlling the subscription count around the threshold.
func TestQuickDirectEvalAgreesWithNFA(t *testing.T) {
	queries := []string{`//a`, `//a/b`, `/a//c`, `//b[@k0 = "v0"]`, `//d//a`}
	// Small filter: active set is a large fraction -> NFA path.
	small := New()
	// Large filter: same queries plus many inert ones -> direct path for
	// the active few.
	large := New()
	for i, q := range queries {
		sub := Subscription{
			ID:      fmt.Sprintf("q%d", i),
			Simple:  []Cond{{Attr: "sel", Op: xpath.OpEq, Value: "yes"}},
			Complex: []*xpath.Path{xpath.MustCompile(q)},
		}
		mustAdd(t, small, sub)
		mustAdd(t, large, sub)
	}
	for i := 0; i < 400; i++ {
		mustAdd(t, large, Subscription{
			ID:      fmt.Sprintf("inert-%03d", i),
			Simple:  []Cond{{Attr: "never", Op: xpath.OpEq, Value: fmt.Sprintf("x%d", i)}},
			Complex: []*xpath.Path{xpath.MustCompile(fmt.Sprintf(`//z%d`, i))},
		})
	}
	prop := func(seed int64) bool {
		doc := genTree(newRand(seed), 4)
		doc.SetAttr("sel", "yes")
		a, err1 := small.Match(doc)
		b, err2 := large.Match(doc)
		if err1 != nil || err2 != nil {
			return false
		}
		return fmt.Sprint(a) == fmt.Sprint(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}
