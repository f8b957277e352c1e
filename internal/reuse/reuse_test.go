package reuse

import (
	"fmt"
	"testing"

	"p2pm/internal/algebra"
	"p2pm/internal/dht"
	"p2pm/internal/kadop"
	"p2pm/internal/p2pml"
	"p2pm/internal/stream"
)

func newDB(t *testing.T) *kadop.DB {
	t.Helper()
	ring := dht.New()
	for i := 0; i < 8; i++ {
		if err := ring.Join(fmt.Sprintf("dht-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return kadop.New(ring)
}

func idGen() func(string) string {
	counters := make(map[string]int)
	return func(peer string) string {
		counters[peer]++
		return fmt.Sprintf("s%d", counters[peer])
	}
}

func compile(t *testing.T, src, subscriber string) *algebra.Node {
	t.Helper()
	plan, err := algebra.Compile(p2pml.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return algebra.Optimize(plan, algebra.DefaultOptions(subscriber))
}

const qosSub = `for $c1 in outCOM(<p>a.com</p><p>b.com</p>),
    $c2 in inCOM(<p>meteo.com</p>)
let $duration := $c1.responseTimestamp - $c1.callTimestamp
where $duration > 10 and
      $c1.callMethod = "GetTemperature" and
      $c1.callee = "http://meteo.com" and
      $c1.callId = $c2.callId
return <incident type="slowAnswer"><client>{$c1.caller}</client></incident>
by publish as channel "alertQoS"`

func TestNoReuseOnEmptyDatabase(t *testing.T) {
	db := newDB(t)
	plan := compile(t, qosSub, "p")
	res, err := Options{From: "dht-0"}.Apply(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReusedOps != 0 || len(res.Mappings) != 0 {
		t.Errorf("unexpected reuse: %+v", res)
	}
	if res.NewOps != plan.Count()-1 { // everything but the publisher
		t.Errorf("NewOps = %d, want %d", res.NewOps, plan.Count()-1)
	}
	if res.Lookups == 0 {
		t.Error("no discovery queries issued")
	}
}

func TestFullReuseOfIdenticalSubscription(t *testing.T) {
	db := newDB(t)
	first := compile(t, qosSub, "p")
	if _, err := PublishPlan(db, first, nil, idGen()); err != nil {
		t.Fatal(err)
	}
	second := compile(t, qosSub, "q") // different subscriber, same task
	res, err := Options{From: "dht-1"}.Apply(second, db)
	if err != nil {
		t.Fatal(err)
	}
	// The whole pipeline below the publisher is one reused channel.
	pub := res.Plan
	if pub.Op != algebra.OpPublish {
		t.Fatalf("root = %v", pub.Op)
	}
	if pub.Inputs[0].Op != algebra.OpChannelIn {
		t.Fatalf("expected full substitution, got:\n%s", res.Plan.Tree())
	}
	if res.NewOps != 0 {
		t.Errorf("NewOps = %d, want 0", res.NewOps)
	}
	if len(res.Mappings) != 1 {
		t.Errorf("mappings = %+v", res.Mappings)
	}
}

func TestPartialReuseSharesSourcesAndFilters(t *testing.T) {
	db := newDB(t)
	first := compile(t, qosSub, "p")
	if _, err := PublishPlan(db, first, nil, idGen()); err != nil {
		t.Fatal(err)
	}
	// Same sources and filter conditions, different output template →
	// the Π differs, everything below it is reusable.
	variant := `for $c1 in outCOM(<p>a.com</p><p>b.com</p>),
	    $c2 in inCOM(<p>meteo.com</p>)
	let $duration := $c1.responseTimestamp - $c1.callTimestamp
	where $duration > 10 and
	      $c1.callMethod = "GetTemperature" and
	      $c1.callee = "http://meteo.com" and
	      $c1.callId = $c2.callId
	return <slow client="{$c1.caller}"/>
	by publish as channel "slowClients"`
	second := compile(t, variant, "q")
	res, err := Options{From: "dht-2"}.Apply(second, db)
	if err != nil {
		t.Fatal(err)
	}
	// The join (and everything below) is reused; only Π and the publisher
	// remain.
	if res.NewOps != 1 {
		t.Errorf("NewOps = %d, want 1 (the new Π):\n%s", res.NewOps, res.Plan.Tree())
	}
	pi := res.Plan.Inputs[0]
	if pi.Op != algebra.OpRestruct || pi.Inputs[0].Op != algebra.OpChannelIn {
		t.Fatalf("plan:\n%s", res.Plan.Tree())
	}
}

func TestLeafOnlyReuseWhenFiltersDiffer(t *testing.T) {
	db := newDB(t)
	first := compile(t, `for $e in inCOM(<p>meteo.com</p>)
	where $e.callMethod = "GetTemperature"
	return $e by publish as channel "temps"`, "p")
	if _, err := PublishPlan(db, first, nil, idGen()); err != nil {
		t.Fatal(err)
	}
	second := compile(t, `for $e in inCOM(<p>meteo.com</p>)
	where $e.callMethod = "GetHumidity"
	return $e by publish as channel "humid"`, "q")
	res, err := Options{From: "dht-0"}.Apply(second, db)
	if err != nil {
		t.Fatal(err)
	}
	// Only the alerter stream is shared: the σ and Π must be new.
	if len(res.Mappings) != 1 {
		t.Fatalf("mappings = %+v", res.Mappings)
	}
	if res.NewOps != 2 {
		t.Errorf("NewOps = %d, want 2 (σ and Π):\n%s", res.NewOps, res.Plan.Tree())
	}
	var chIn *algebra.Node
	res.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpChannelIn {
			chIn = n
		}
	})
	if chIn == nil || chIn.Channel.PeerID != "meteo.com" {
		t.Fatalf("alerter substitution missing:\n%s", res.Plan.Tree())
	}
}

func TestReplicaSelectionPrefersClose(t *testing.T) {
	db := newDB(t)
	first := compile(t, `for $e in inCOM(<p>meteo.com</p>) return $e by publish as channel "raw"`, "p")
	refs, err := PublishPlan(db, first, nil, idGen())
	if err != nil {
		t.Fatal(err)
	}
	// Find the alerter's stream and declare a replica at nearby.com.
	var alerterRef stream.Ref
	first.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpAlerter {
			alerterRef = refs[n]
		}
	})
	replica := stream.Ref{PeerID: "nearby.com", StreamID: "rep1"}
	if err := db.PublishReplica(alerterRef, replica); err != nil {
		t.Fatal(err)
	}

	dist := func(a, b string) float64 {
		if b == "nearby.com" {
			return 0.1
		}
		return 0.9
	}
	load := func(string) int { return 0 }
	second := compile(t, `for $e in inCOM(<p>meteo.com</p>)
	where $e.callMethod = "Q" return $e by publish as channel "filtered"`, "q")
	res, err := Options{From: "dht-0", Choose: PreferClose(dist, load)}.Apply(second, db)
	if err != nil {
		t.Fatal(err)
	}
	var chIn *algebra.Node
	res.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpChannelIn {
			chIn = n
		}
	})
	if chIn == nil {
		t.Fatalf("no substitution:\n%s", res.Plan.Tree())
	}
	if chIn.Channel != replica {
		t.Errorf("provider = %v, want replica %v", chIn.Channel, replica)
	}
	if chIn.Origin != alerterRef {
		t.Errorf("origin = %v, want %v", chIn.Origin, alerterRef)
	}
}

func TestPreferCloseTieBreaksOnLoad(t *testing.T) {
	orig := stream.Ref{PeerID: "a", StreamID: "s"}
	rep := stream.Ref{PeerID: "b", StreamID: "r"}
	dist := func(string, string) float64 { return 1 }
	load := func(p string) int {
		if p == "b" {
			return 0
		}
		return 5
	}
	got := PreferClose(dist, load)("c", orig, []stream.Ref{rep})
	if got != rep {
		t.Errorf("got %v", got)
	}
}

// TestPublishedDescriptorsReferenceOriginals checks the Section 5
// bookkeeping rule: a consumer built on a reused (possibly replicated)
// stream publishes its own descriptors against the original stream.
func TestPublishedDescriptorsReferenceOriginals(t *testing.T) {
	db := newDB(t)
	first := compile(t, `for $e in inCOM(<p>meteo.com</p>) return $e by publish as channel "raw"`, "p")
	refs, err := PublishPlan(db, first, nil, idGen())
	if err != nil {
		t.Fatal(err)
	}
	var alerterRef stream.Ref
	first.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpAlerter {
			alerterRef = refs[n]
		}
	})

	second := compile(t, `for $e in inCOM(<p>meteo.com</p>)
	where $e.callMethod = "Q" return $e by publish as channel "f"`, "q")
	res, err := Options{From: "dht-0"}.Apply(second, db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PublishPlan(db, res.Plan, nil, idGen()); err != nil {
		t.Fatal(err)
	}
	// The new σ's descriptor must name the original alerter stream as its
	// operand.
	defs, _, err := db.FindByOperand("dht-0", "Filter", alerterRef)
	if err != nil || len(defs) == 0 {
		t.Fatalf("filter descriptor not discoverable via original operand: %v, %v", defs, err)
	}
}

func TestReuseChainAcrossThreeSubscriptions(t *testing.T) {
	// sub1 deploys alerter; sub2 deploys σ over it (reusing the alerter);
	// sub3 asks for the same σ and reuses sub2's stream — transitive
	// sharing of derived streams, which the paper contrasts with
	// StreamGlobe's unary-only sharing.
	db := newDB(t)
	plan1 := compile(t, `for $e in inCOM(<p>m.com</p>) return $e by publish as channel "raw"`, "p1")
	if _, err := PublishPlan(db, plan1, nil, idGen()); err != nil {
		t.Fatal(err)
	}
	subSrc := `for $e in inCOM(<p>m.com</p>)
	where $e.callMethod = "Q" return $e by publish as channel "fq"`
	plan2 := compile(t, subSrc, "p2")
	res2, err := Options{From: "dht-0"}.Apply(plan2, db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PublishPlan(db, res2.Plan, nil, idGen()); err != nil {
		t.Fatal(err)
	}
	plan3 := compile(t, subSrc, "p3")
	res3, err := Options{From: "dht-0"}.Apply(plan3, db)
	if err != nil {
		t.Fatal(err)
	}
	if res3.NewOps != 0 {
		t.Errorf("third subscription should deploy nothing new:\n%s", res3.Plan.Tree())
	}
}
