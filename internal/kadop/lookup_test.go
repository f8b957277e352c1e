package kadop

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestCorruptRecordFailsEveryLookup: a record that does not decode makes
// the lookup fail on every call, not only the first — the memo never
// holds it — and the good records under other keys stay reachable.
func TestCorruptRecordFailsEveryLookup(t *testing.T) {
	for _, bad := range []string{`<Stream PeerId="p1"`, `<NotAStream/>`, `<Stream PeerId="p1" StreamId="s9"/>`} {
		d := db(t, 4)
		if err := d.Publish(alerterDef("s1@p1", "inCOM")); err != nil {
			t.Fatal(err)
		}
		if err := d.ring.Put(alerterKey("p1", "inCOM"), bad); err != nil {
			t.Fatal(err)
		}
		for call := 0; call < 3; call++ {
			if defs, _, err := d.FindAlerters("", "p1", "inCOM"); err == nil {
				t.Errorf("%q, call %d: lookup over a corrupt record returned %v", bad, call, refsOf(defs))
			}
		}
		if _, cached := d.memo[bad]; cached {
			t.Errorf("%q was memoized", bad)
		}
		if def, _, err := d.FindByRef("", ref("s1@p1")); err != nil || def == nil {
			t.Errorf("%q: the good record under its own key: %+v, %v", bad, def, err)
		}
	}
}

// TestConcurrentPublishLookup: managers publish and look up on shared
// keys at once (run under -race). The published count comes out exact
// and every lookup result is sorted and duplicate-free.
func TestConcurrentPublishLookup(t *testing.T) {
	const workers, perWorker = 8, 40
	d := db(t, 16)
	const sig = "inCOM(m)"
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Every worker publishes its own streams of peer m plus,
				// every fourth time, a record all workers share.
				r := fmt.Sprintf("s%d-%d@m", w, i)
				if i%4 == 0 {
					r = fmt.Sprintf("shared%d@m", i)
				}
				def := &StreamDef{Ref: ref(r), IsChannel: true, Operator: "inCOM", Signature: sig}
				if err := d.Publish(def); err != nil {
					t.Error(err)
					return
				}
				for _, find := range []func() ([]*StreamDef, int, error){
					func() ([]*StreamDef, int, error) { return d.FindAlerters("peer-1", "m", "inCOM") },
					func() ([]*StreamDef, int, error) { return d.FindBySignature("peer-2", sig) },
				} {
					got, _, err := find()
					if err != nil {
						t.Error(err)
						return
					}
					refs := refsOf(got)
					if !sort.StringsAreSorted(refs) {
						t.Errorf("unsorted result: %v", refs)
					}
					for j := 1; j < len(refs); j++ {
						if refs[j] == refs[j-1] {
							t.Errorf("duplicate %s in result", refs[j])
						}
					}
					if !strings.Contains(strings.Join(refs, " "), r) {
						t.Errorf("own publication %s missing from %v", r, refs)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := d.Defs(); got != workers*perWorker {
		t.Errorf("Defs() = %d, want %d", got, workers*perWorker)
	}
	got, _, err := d.FindAlerters("", "m", "inCOM")
	if want := workers*perWorker - (workers-1)*perWorker/4; err != nil || len(got) != want {
		t.Errorf("final lookup: %d distinct streams, %v; want %d", len(got), err, want)
	}
}
