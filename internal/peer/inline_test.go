package peer

import (
	"fmt"
	"strings"
	"testing"

	"p2pm/internal/algebra"
	"p2pm/internal/p2pml"
	"p2pm/internal/xmltree"
)

// hitsSub is pipeline-sim's select+restructure subscription over s0..s(n-1).
func hitsSub(n int) string {
	var in strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&in, "<p>s%d</p>", i)
	}
	return `for $e in inCOM(` + in.String() + `) where $e.callMethod = "Q" return <hit id="{$e.callId}"/> by publish as channel "hits"`
}

// TestInlineDeliveryOneSourceStepPerCall: on a system shaped and deployed
// like pipeline-sim — 8 sources, 3 workers, the hits subscription, then a
// degree-3 group tree — a call at a source takes two steps of that
// source's loop: the tap's, which runs σ and Π inside it, and the group
// leaf's. Four items are handled: the alert, σ, Π and the leaf. (With
// each operator a step of its own it was four steps, three when Π still
// ran above the union.)
func TestInlineDeliveryOneSourceStepPerCall(t *testing.T) {
	const sources = 8
	cfg := DefaultConfig()
	cfg.Agg.Degree = 3
	sys := MustSystem(cfg)
	mgr := sys.MustAddPeer("mgr")
	client := sys.MustAddPeer("client").Endpoint()
	for i := 0; i < sources; i++ {
		sys.MustAddPeer(fmt.Sprintf("s%d", i)).Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
			return xmltree.Elem("ok"), nil
		}, nil)
	}
	for i := 0; i < 3; i++ {
		sys.MustAddPeer(fmt.Sprintf("w%d", i))
	}
	sys.SetAggHosts(func(name string) bool { return name[0] == 'w' })
	hits, err := mgr.Subscribe(hitsSub(sources))
	if err != nil {
		t.Fatal(err)
	}
	defer hits.Stop()
	agg, err := mgr.DeployPlan(countPlan(sources, "agg"))
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Stop()
	call := func() {
		if _, err := client.Invoke("s0", "Q", nil); err != nil {
			t.Fatal(err)
		}
		sys.Quiesce()
	}
	call() // warm-up
	before := sys.executor("s0").Stats()
	const calls = 32
	for i := 0; i < calls; i++ {
		call()
	}
	after := sys.executor("s0").Stats()
	if steps, items := after.Steps-before.Steps, after.Items-before.Items; steps != 2*calls || items != 4*calls {
		t.Errorf("%d calls took %d steps and %d items on the source's loop, want %d and %d", calls, steps, items, 2*calls, 4*calls)
	}
	if got := hits.Results().Len(); got != calls+1 {
		t.Errorf("%d hits for %d calls", got, calls+1)
	}
}

// TestPushedProjectionMatchesUnpushedPlan: the hits subscription, whose Π
// Optimize moves into every source's branch, and the same plan built by
// hand with Π above the ∪, deployed on two systems of one seed and driven
// by the same calls, publish byte-identical results — and the pushed plan
// ships a <hit> across each link instead of its alert.
func TestPushedProjectionMatchesUnpushedPlan(t *testing.T) {
	const sources = 4
	pushed, err := algebra.Compile(p2pml.MustParse(hitsSub(sources)))
	if err != nil {
		t.Fatal(err)
	}
	pushed = algebra.Optimize(pushed, algebra.DefaultOptions("mgr"))
	union := pushed.Inputs[0]
	var sigmas []*algebra.Node
	for _, b := range union.Inputs {
		sigmas = append(sigmas, b.Inputs[0].Clone())
	}
	unpushed := algebra.Optimize(&algebra.Node{
		Op: algebra.OpPublish, Peer: algebra.AnyPeer, Publish: pushed.Publish,
		Inputs: []*algebra.Node{{
			Op: algebra.OpRestruct, Peer: algebra.AnyPeer, Restruct: union.Inputs[0].Restruct,
			Inputs: []*algebra.Node{{Op: algebra.OpUnion, Peer: algebra.AnyPeer, Schema: sigmas[0].Schema, Inputs: sigmas}},
		}},
	}, algebra.Options{SubscriberPeer: "mgr"})
	if got, want := unpushed.String(), "publisher@mgr(Π@mgr(∪@mgr(σ@s0(in@s0), σ@s1(in@s1), σ@s2(in@s2), σ@s3(in@s3))))"; got != want {
		t.Fatalf("hand-built plan %s, want %s", got, want)
	}
	run := func(plan *algebra.Node) (results string, bytes uint64) {
		sys := MustSystem(DefaultConfig())
		mgr := sys.MustAddPeer("mgr")
		client := sys.MustAddPeer("client").Endpoint()
		for i := 0; i < sources; i++ {
			sys.MustAddPeer(fmt.Sprintf("s%d", i)).Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
				return xmltree.Elem("ok"), nil
			}, nil)
		}
		task, err := mgr.DeployPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			method := "Q"
			if i%5 == 4 {
				method = "Other" // filtered out at the source
			}
			client.Invoke(fmt.Sprintf("s%d", i%sources), method, nil)
			sys.Quiesce()
		}
		task.Stop()
		var b strings.Builder
		for _, it := range task.Results().Drain() {
			b.WriteString(it.Tree.String())
			b.WriteByte('\n')
		}
		return b.String(), sys.Net.Totals().Bytes
	}
	gotRes, gotBytes := run(pushed)
	wantRes, wantBytes := run(unpushed)
	if gotRes != wantRes || strings.Count(gotRes, "\n") != 32 {
		t.Errorf("results differ or are not the 32 matching calls:\npushed\n%s\nunpushed\n%s", gotRes, wantRes)
	}
	if gotBytes >= wantBytes {
		t.Errorf("network bytes %d with Π at the sources, %d with Π above the ∪: want fewer", gotBytes, wantBytes)
	}
}

// TestHitsCrossOnceAndOutliveAnotherSource: the hits subscription's ∪
// feeds its publisher, so it runs at the subscriber. A hit crosses one
// link, from its source to mgr; no source relays another's hits, so
// with s3 crashed (and no supervisor to repair anything) the hits of
// s0–s2 all still arrive.
func TestHitsCrossOnceAndOutliveAnotherSource(t *testing.T) {
	const sources = 4
	sys := MustSystem(DefaultConfig())
	mgr := sys.MustAddPeer("mgr")
	client := sys.MustAddPeer("client").Endpoint()
	for i := 0; i < sources; i++ {
		sys.MustAddPeer(fmt.Sprintf("s%d", i)).Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
			return xmltree.Elem("ok"), nil
		}, nil)
	}
	hits, err := mgr.Subscribe(hitsSub(sources))
	if err != nil {
		t.Fatal(err)
	}
	defer hits.Stop()
	calls := func(n, sources int) {
		for i := 0; i < n; i++ {
			if _, err := client.Invoke(fmt.Sprintf("s%d", i%sources), "Q", nil); err != nil {
				t.Fatal(err)
			}
			sys.Quiesce()
		}
	}
	calls(40, sources)
	for a := 0; a < sources; a++ {
		for b := 0; b < sources; b++ {
			if l := sys.Net.Link(fmt.Sprintf("s%d", a), fmt.Sprintf("s%d", b)); a != b && l.Messages != 0 {
				t.Errorf("s%d→s%d carried %d messages, %d bytes; want none", a, b, l.Messages, l.Bytes)
			}
		}
	}
	if got := hits.Results().Len(); got != 40 {
		t.Fatalf("%d hits for 40 calls", got)
	}
	sys.Net.Crash("s3") //nolint:errcheck // known node
	calls(30, sources-1)
	if got := hits.Results().Len() - 40; got != 30 {
		t.Errorf("%d hits for 30 calls to s0–s2 after s3 crashed", got)
	}
}
