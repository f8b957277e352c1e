package peer

import (
	"fmt"
	"testing"
	"time"
)

// TestStoppedTaskStreamIsNotReused: a stopped task's streams leave the
// stream definition database with it, so an identical subscription made
// afterwards deploys its own operators and receives every record. Before
// Stop retracted them, the second task mapped its aggregate onto the
// first's closed stream and received nothing.
func TestStoppedTaskStreamIsNotReused(t *testing.T) {
	const sources, calls = 4, 4
	opts := DefaultConfig()
	opts.Agg.Degree = 3
	sys := aggPeers(opts, sources, 6)
	mgr := sys.Peer("mgr")
	sub := `for $e in inCOM(<p>s0</p><p>s1</p><p>s2</p><p>s3</p>) return $e group on "callee" window "24s" by publish as channel "g%d"`
	first, err := mgr.Subscribe(fmt.Sprintf(sub, 0))
	if err != nil {
		t.Fatal(err)
	}
	defs := sys.DB.Document().Children
	first.Stop()
	if left := sys.DB.Document().Children; len(left) != 0 {
		t.Errorf("%d of %d descriptors outlive their task, e.g. %s", len(left), len(defs), left[0])
	}
	again, err := mgr.Subscribe(fmt.Sprintf(sub, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(again.Reuse.Mappings); n != 0 {
		t.Errorf("the second task reused %d streams of the stopped one:\n%s", n, again.Plan.Tree())
	}
	client := sys.Peer("client")
	for e := 0; e < calls; e++ {
		for s := 0; s < sources; s++ {
			if _, err := client.Endpoint().Invoke(fmt.Sprintf("s%d", s), "Q", nil); err != nil {
				t.Fatal(err)
			}
		}
		sys.Step(time.Second)
	}
	again.Stop()
	recs := again.Results().Drain()
	if len(recs) != sources {
		t.Fatalf("%d records, want one per source (%d)", len(recs), sources)
	}
	for _, it := range recs {
		if got := it.Tree.AttrOr("count", ""); got != fmt.Sprint(calls) {
			t.Errorf("record %s counts %s, want %d", it.Tree, got, calls)
		}
	}
}
