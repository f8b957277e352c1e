package reuse

import (
	"slices"
	"strings"
	"testing"

	"p2pm/internal/algebra"
)

// TestSubsumptionPartialReuse: sub2's conditions are a strict superset of
// sub1's, so sub2 reuses sub1's filtered stream and deploys only the
// residual condition.
func TestSubsumptionPartialReuse(t *testing.T) {
	db := newDB(t)
	first := compile(t, `for $e in inCOM(<p>m.com</p>)
	where $e.callMethod = "Q"
	return $e by publish as channel "base"`, "p1")
	if _, err := PublishPlan(db, first, nil, idGen()); err != nil {
		t.Fatal(err)
	}

	second := compile(t, `for $e in inCOM(<p>m.com</p>)
	where $e.callMethod = "Q" and $e.caller = "http://x.com"
	return $e by publish as channel "narrow"`, "p2")
	res, err := Options{From: "dht-0"}.Apply(second, db)
	if err != nil {
		t.Fatal(err)
	}
	// Expected rewritten shape: publisher(Π(σ[caller](chan(σ1)))).
	var sigma *algebra.Node
	res.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpSelect {
			sigma = n
		}
	})
	if sigma == nil {
		t.Fatalf("no residual σ:\n%s", res.Plan.Tree())
	}
	if len(sigma.Select.Conds) != 1 || !strings.Contains(sigma.Select.Conds[0].String(), "caller") {
		t.Fatalf("residual conds = %v", sigma.Select.Conds)
	}
	if sigma.Inputs[0].Op != algebra.OpChannelIn {
		t.Fatalf("residual σ not over a channel:\n%s", res.Plan.Tree())
	}
	// Only the residual σ and the Π remain to deploy.
	if res.NewOps != 2 {
		t.Errorf("NewOps = %d, want 2:\n%s", res.NewOps, res.Plan.Tree())
	}
}

// TestSubsumptionVarNameIndependent: the same conditions under different
// variable names are recognized.
func TestSubsumptionVarNameIndependent(t *testing.T) {
	db := newDB(t)
	first := compile(t, `for $a in inCOM(<p>m.com</p>)
	where $a.callMethod = "Q"
	return $a by publish as channel "c1"`, "p1")
	if _, err := PublishPlan(db, first, nil, idGen()); err != nil {
		t.Fatal(err)
	}
	second := compile(t, `for $zz in inCOM(<p>m.com</p>)
	where $zz.callMethod = "Q" and $zz.fault != ""
	return $zz by publish as channel "c2"`, "p2")
	res, err := Options{From: "dht-0"}.Apply(second, db)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	res.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpChannelIn && n.Origin.StreamID != "" && n.Origin.PeerID == "m.com" {
			found = true
		}
	})
	if !found || res.NewOps != 2 {
		t.Errorf("var-renamed subsumption failed (NewOps=%d):\n%s", res.NewOps, res.Plan.Tree())
	}
}

// TestSubsumptionChainBecomesFullReuse: after the residual filter from a
// partial reuse is itself published, a third identical subscription
// chains through it and deploys nothing new but its Π/publisher.
func TestSubsumptionChainBecomesFullReuse(t *testing.T) {
	db := newDB(t)
	first := compile(t, `for $e in inCOM(<p>m.com</p>)
	where $e.callMethod = "Q"
	return $e by publish as channel "c1"`, "p1")
	if _, err := PublishPlan(db, first, nil, idGen()); err != nil {
		t.Fatal(err)
	}
	narrowSrc := `for $e in inCOM(<p>m.com</p>)
	where $e.callMethod = "Q" and $e.caller = "http://x.com"
	return $e by publish as channel "c2"`
	second := compile(t, narrowSrc, "p2")
	res2, err := Options{From: "dht-0"}.Apply(second, db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PublishPlan(db, res2.Plan, nil, idGen()); err != nil {
		t.Fatal(err)
	}

	third := compile(t, narrowSrc, "p3")
	res3, err := Options{From: "dht-0"}.Apply(third, db)
	if err != nil {
		t.Fatal(err)
	}
	// The whole σ chain is covered; only Π remains (the residual σ from
	// sub2 is discovered through the operand chain).
	if res3.NewOps > 1 {
		t.Errorf("NewOps = %d, want ≤ 1:\n%s", res3.NewOps, res3.Plan.Tree())
	}
}

// TestSubsumptionRequiresSubset: overlapping but non-subset condition
// sets must not be "reused" (that would change semantics).
func TestSubsumptionRequiresSubset(t *testing.T) {
	db := newDB(t)
	first := compile(t, `for $e in inCOM(<p>m.com</p>)
	where $e.callMethod = "Q" and $e.fault != ""
	return $e by publish as channel "c1"`, "p1")
	if _, err := PublishPlan(db, first, nil, idGen()); err != nil {
		t.Fatal(err)
	}
	// Shares callMethod="Q" but lacks the fault condition: σ1 filters
	// *too much* and must not be used.
	second := compile(t, `for $e in inCOM(<p>m.com</p>)
	where $e.callMethod = "Q" and $e.caller = "http://x.com"
	return $e by publish as channel "c2"`, "p2")
	res, err := Options{From: "dht-0"}.Apply(second, db)
	if err != nil {
		t.Fatal(err)
	}
	// Only the alerter is shared; the full σ must be deployed fresh.
	var sigma *algebra.Node
	res.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpSelect {
			sigma = n
		}
	})
	if sigma == nil || len(sigma.Select.Conds) != 2 {
		t.Fatalf("expected fresh 2-condition σ:\n%s", res.Plan.Tree())
	}
}

// TestSubsumptionWithLets: conditions over LET-derived values
// canonicalize by inlining, so equivalent derived conditions match.
func TestSubsumptionWithLets(t *testing.T) {
	db := newDB(t)
	first := compile(t, `for $e in inCOM(<p>m.com</p>)
	let $d := $e.responseTimestamp - $e.callTimestamp
	where $d > 10
	return $e by publish as channel "slow"`, "p1")
	if _, err := PublishPlan(db, first, nil, idGen()); err != nil {
		t.Fatal(err)
	}
	second := compile(t, `for $x in inCOM(<p>m.com</p>)
	let $lag := $x.responseTimestamp - $x.callTimestamp
	where $lag > 10 and $x.callMethod = "Q"
	return $x by publish as channel "slowQ"`, "p2")
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
		t.Fatalf("LET-inlined subsumption failed:\n%s", res.Plan.Tree())
	}
	if len(sigma.Select.Conds) != 1 || !strings.Contains(sigma.Select.Conds[0].String(), "callMethod") {
		t.Errorf("residual = %v", sigma.Select.Conds)
	}
}

// TestCanonCondHelpers: a filter's descriptor publishes its conditions
// as algebra.CanonConds renders them — sorted, LETs inlined, the stream
// variable renamed by name and never inside a literal — and a filter
// over a multi-variable input publishes none.
func TestCanonCondHelpers(t *testing.T) {
	db := newDB(t)
	plan := compile(t, `for $e in inCOM(<p>m</p>)
	let $d := $e.r - $e.c
	where $d > 10 and $e.a = "$e"
	return $e by channel C`, "p")
	three := compile(t, `for $a in outCOM(<p>x</p>), $b in inCOM(<p>y</p>), $c in inCOM(<p>z</p>)
	where $a.callId = $b.callId and $b.callId = $c.callId and $a.n + $b.n < $c.n
	return <r/> by channel D`, "p")
	want := map[string][]string{
		`σ[$d > 10 and $e.a = "$e"]`: {`$_.a = "$e"`, `($_.r - $_.c) > 10`},
		`σ[$a.n + $b.n < $c.n]`:      nil,
	}
	for _, p := range []*algebra.Node{plan, three} {
		refs, err := PublishPlan(db, p, nil, idGen())
		if err != nil {
			t.Fatal(err)
		}
		p.Walk(func(n *algebra.Node) {
			if n.Op != algebra.OpSelect {
				return
			}
			def, _, err := db.FindByRef("", refs[n])
			if err != nil || def == nil {
				t.Fatalf("%s: no descriptor (%v)", n.Label(), err)
			}
			if w, ok := want[n.Label()]; !ok || !slices.Equal(def.Conds, w) {
				t.Errorf("%s publishes Conds %q, want %q", n.Label(), def.Conds, w)
			}
		})
	}
}
