package kadop

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"p2pm/internal/dht"
	"p2pm/internal/stream"
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

// TestFindAlertersAllocs pins a steady-state discovery lookup, every
// descriptor already decoded into the memo: over a ring of 100 and of
// 1 000 peers holding ten descriptors each, 6 and 7 allocations per
// lookup, the two peer names the loop formats per call included.
func TestFindAlertersAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a race-instrumented build allocates once more per lookup")
	}
	for _, c := range []struct {
		peers int
		want  float64
	}{{100, 6}, {1000, 7}} {
		ring := dht.New()
		for i := 0; i < c.peers; i++ {
			if err := ring.Join(fmt.Sprintf("peer-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		db := New(ring)
		for i := 0; i < c.peers*10; i++ {
			if err := db.Publish(&StreamDef{
				Ref:       stream.Ref{PeerID: fmt.Sprintf("peer-%d", i%c.peers), StreamID: fmt.Sprintf("s%d", i)},
				Operator:  "inCOM",
				Signature: fmt.Sprintf("inCOM(peer-%d)#%d", i%c.peers, i),
			}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < c.peers; i++ { // decode every descriptor once
			if _, _, err := db.FindAlerters("peer-0", fmt.Sprintf("peer-%d", i), "inCOM"); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		lookup := func() {
			if _, _, err := db.FindAlerters(fmt.Sprintf("peer-%d", i%c.peers),
				fmt.Sprintf("peer-%d", (i*13)%c.peers), "inCOM"); err != nil {
				t.Fatal(err)
			}
			i++
		}
		if got := testing.AllocsPerRun(2000, lookup); got != c.want {
			t.Errorf("%d peers: %v allocs per lookup, want %v", c.peers, got, c.want)
		}
	}
}

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool
