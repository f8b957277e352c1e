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

// TestChannelNodeKeepsOriginalForUnknownConsumer: when a covered node has
// no concrete placement yet (AnyPeer) and Options.Consumer is unset, the
// chooser cannot be given a meaningful consumer — a distance-based policy
// would score distance("", ·). The rewrite must keep the original
// provider and must not invoke the chooser at all.
func TestChannelNodeKeepsOriginalForUnknownConsumer(t *testing.T) {
	db := newDB(t)
	first := compile(t, `for $e in inCOM(<p>m.com</p>)
	where $e.callMethod = "Q"
	return $e by publish as channel "base"`, "p1")
	refs, err := PublishPlan(db, first, nil, idGen())
	if err != nil {
		t.Fatal(err)
	}
	var sigmaRef stream.Ref
	first.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpSelect {
			sigmaRef = refs[n]
		}
	})
	replica := stream.Ref{PeerID: "nearby.com", StreamID: "rep1"}
	if err := db.PublishReplica(sigmaRef, replica); err != nil {
		t.Fatal(err)
	}

	// Same filter, different Π, compiled but *not* optimized: no operator
	// has a concrete placement, so the consumer of the reused stream is
	// unknown.
	sub := p2pml.MustParse(`for $e in inCOM(<p>m.com</p>)
	where $e.callMethod = "Q"
	return <q/> by publish as channel "other"`)
	plan, err := algebra.Compile(sub)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	choose := func(consumer string, orig stream.Ref, reps []stream.Ref) stream.Ref {
		calls++
		if consumer == "" {
			t.Error("chooser invoked with empty consumer")
		}
		if len(reps) > 0 {
			return reps[0]
		}
		return orig
	}
	res, err := Options{From: "dht-0", Choose: choose}.Apply(plan, db)
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
	if chIn.Channel != sigmaRef {
		t.Errorf("provider = %v, want original %v (replica must not be chosen for an unknown consumer)", chIn.Channel, sigmaRef)
	}
	if calls != 0 {
		t.Errorf("chooser invoked %d times with no known consumer", calls)
	}
}

// TestFailedReplicaLookupRecordedNotFatal: a corrupt replica record makes
// db.Replicas fail. The rewrite must fall back to the original provider
// (not abort, not consult the chooser with a broken replica set) and
// surface the failure in Result.FailedLookups.
func TestFailedReplicaLookupRecordedNotFatal(t *testing.T) {
	ring := dht.New()
	for i := 0; i < 8; i++ {
		if err := ring.Join(fmt.Sprintf("dht-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	db := kadop.New(ring)
	first := compile(t, `for $e in inCOM(<p>m.com</p>)
	where $e.callMethod = "Q"
	return $e by publish as channel "base"`, "p1")
	refs, err := PublishPlan(db, first, nil, idGen())
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt every published stream's replica record: whichever node the
	// rewrite substitutes, its replica lookup fails.
	for _, ref := range refs {
		if err := ring.Put("replica|"+ref.String(), "<x/>"); err != nil {
			t.Fatal(err)
		}
	}

	second := compile(t, `for $e in inCOM(<p>m.com</p>)
	where $e.callMethod = "Q"
	return $e by publish as channel "other"`, "p2")
	calls := 0
	choose := func(consumer string, orig stream.Ref, reps []stream.Ref) stream.Ref {
		calls++
		return orig
	}
	res, err := Options{From: "dht-0", Consumer: "p2", Choose: choose}.Apply(second, db)
	if err != nil {
		t.Fatalf("failed replica lookup must not abort the rewrite: %v", err)
	}
	if res.FailedLookups == 0 {
		t.Error("failed replica lookup not recorded in Result.FailedLookups")
	}
	if calls != 0 {
		t.Errorf("chooser invoked %d times over a failed replica set", calls)
	}
	for _, m := range res.Mappings {
		if m.Provider != m.Original || m.IsReplica {
			t.Errorf("mapping %+v: must keep the original provider when the replica set is unknown", m)
		}
	}
}

// TestSubsumeProviderChoiceDeterministic: two covering filters of equal
// width are a tie; the choice must depend only on DB contents — same
// descriptors inserted in a different order must yield the identical
// Mapping (two managers resolving the same subscription pick the same
// provider). The tie breaks toward the lexicographically smallest
// stream reference.
func TestSubsumeProviderChoiceDeterministic(t *testing.T) {
	baseSrc := `for $e in inCOM(<p>m.com</p>)
	where $e.callMethod = "Q"
	return $e by publish as channel "cq"`
	altSrc := `for $e in inCOM(<p>m.com</p>)
	where $e.fault != ""
	return $e by publish as channel "cf"`
	target := `for $e in inCOM(<p>m.com</p>)
	where $e.callMethod = "Q" and $e.fault != ""
	return $e by publish as channel "both"`

	// Build the descriptor set once, then replay it into fresh databases
	// in both orders: identical contents, shuffled insertion.
	seed := newDB(t)
	gen := idGen()
	for _, src := range []string{baseSrc, altSrc} {
		if _, err := PublishPlan(seed, compile(t, src, "p1"), nil, gen); err != nil {
			t.Fatal(err)
		}
	}
	var defs []*kadop.StreamDef
	for _, c := range seed.Document().Children {
		d, err := kadop.ParseDef(c)
		if err != nil {
			t.Fatal(err)
		}
		defs = append(defs, d)
	}
	if len(defs) < 3 {
		t.Fatalf("expected alerter + two filters, got %d defs", len(defs))
	}

	run := func(order []*kadop.StreamDef) []Mapping {
		db := newDB(t)
		for _, d := range order {
			if err := db.PublishIndexed(d); err != nil {
				t.Fatal(err)
			}
		}
		res, err := Options{From: "dht-0"}.Apply(compile(t, target, "p2"), db)
		if err != nil {
			t.Fatal(err)
		}
		return res.Mappings
	}
	fwd := run(defs)
	rev := make([]*kadop.StreamDef, len(defs))
	for i, d := range defs {
		rev[len(defs)-1-i] = d
	}
	bwd := run(rev)
	if fmt.Sprint(fwd) != fmt.Sprint(bwd) {
		t.Errorf("mapping depends on insertion order:\n fwd %v\n bwd %v", fwd, bwd)
	}
	// The tie between the two single-condition covers breaks toward the
	// smallest Ref.String() among the published filter streams.
	var want stream.Ref
	for _, d := range defs {
		if d.Operator != "Filter" {
			continue
		}
		if want == (stream.Ref{}) || d.Ref.String() < want.String() {
			want = d.Ref
		}
	}
	found := false
	for _, m := range fwd {
		if m.Original == want {
			found = true
		}
	}
	if !found {
		t.Errorf("expected the tie to pick %v; mappings = %v", want, fwd)
	}
}

// TestResidualLetsPrunedToResidualConds: the residual σ of a partial
// subsumption must carry only the LET bindings its own conditions
// reference — carrying the covered conditions' bindings makes the node
// differ from an equivalently hand-written filter. The chain through the
// published residual must still resolve to full reuse.
func TestResidualLetsPrunedToResidualConds(t *testing.T) {
	db := newDB(t)
	first := compile(t, `for $e in inCOM(<p>m.com</p>)
	let $d := $e.responseTimestamp - $e.callTimestamp
	where $d > 10
	return $e by publish as channel "slow"`, "p1")
	if _, err := PublishPlan(db, first, nil, idGen()); err != nil {
		t.Fatal(err)
	}
	narrowSrc := `for $e in inCOM(<p>m.com</p>)
	let $d := $e.responseTimestamp - $e.callTimestamp
	where $d > 10 and $e.caller = "http://x.com"
	return $e by publish as channel "slowX"`
	second := compile(t, narrowSrc, "p2")
	res2, err := Options{From: "dht-0"}.Apply(second, db)
	if err != nil {
		t.Fatal(err)
	}
	var sigma *algebra.Node
	res2.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpSelect {
			sigma = n
		}
	})
	if sigma == nil || sigma.Inputs[0].Op != algebra.OpChannelIn {
		t.Fatalf("no residual σ over channel:\n%s", res2.Plan.Tree())
	}
	// The residual condition ($e.caller = ...) references no LET: the $d
	// binding covered by the reused stream must not ride along.
	if len(sigma.Select.Lets) != 0 {
		t.Errorf("residual Lets = %v, want none", sigma.Select.Lets)
	}
	if _, err := PublishPlan(db, res2.Plan, nil, idGen()); err != nil {
		t.Fatal(err)
	}
	third := compile(t, narrowSrc, "p3")
	res3, err := Options{From: "dht-0"}.Apply(third, db)
	if err != nil {
		t.Fatal(err)
	}
	if res3.NewOps > 1 {
		t.Errorf("chained subsumption through the residual failed (NewOps=%d):\n%s", res3.NewOps, res3.Plan.Tree())
	}
}

// TestResidualLetsKeepTransitiveDeps: when the residual condition *does*
// reference a LET that itself references another, both bindings survive
// the pruning.
func TestResidualLetsKeepTransitiveDeps(t *testing.T) {
	db := newDB(t)
	first := compile(t, `for $e in inCOM(<p>m.com</p>)
	where $e.callMethod = "Q"
	return $e by publish as channel "q"`, "p1")
	if _, err := PublishPlan(db, first, nil, idGen()); err != nil {
		t.Fatal(err)
	}
	second := compile(t, `for $e in inCOM(<p>m.com</p>)
	let $d := $e.responseTimestamp - $e.callTimestamp, $dd := $d - 5
	where $e.callMethod = "Q" and $dd > 10
	return $e by publish as channel "slowQ"`, "p2")
	res, err := Options{From: "dht-0"}.Apply(second, db)
	if err != nil {
		t.Fatal(err)
	}
	var sigma *algebra.Node
	res.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpSelect {
			sigma = n
		}
	})
	if sigma == nil || sigma.Inputs[0].Op != algebra.OpChannelIn {
		t.Fatalf("no residual σ over channel:\n%s", res.Plan.Tree())
	}
	if len(sigma.Select.Lets) != 2 {
		t.Errorf("residual Lets = %v, want the $d and $dd chain", sigma.Select.Lets)
	}
}
