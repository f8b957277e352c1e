package reuse

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"p2pm/internal/aggtree"
	"p2pm/internal/algebra"
	"p2pm/internal/kadop"
	"p2pm/internal/p2pml"
	"p2pm/internal/stream"
)

// referenceApply is Apply without its exact-match probe: clone the plan,
// match it bottom-up, rewrite it — the whole pass every subscription ran
// before the probe. It shares match and rewrite with Apply, so comparing
// the two checks the probe and nothing else.
func (o Options) referenceApply(plan *algebra.Node, db *kadop.DB) (*Result, error) {
	r := &Result{}
	work := plan.Clone()
	st := &matchState{
		matched:   make(map[*algebra.Node]matchInfo),
		partials:  make(map[*algebra.Node]*partialMatch),
		aggCovers: make(map[*algebra.Node]*aggCover),
		sigs:      make(map[*algebra.Node]string),
	}
	if _, err := o.match(work, db, st, r); err != nil {
		return nil, err
	}
	r.Plan = o.rewrite(work, db, st, r)
	r.Plan.Walk(func(n *algebra.Node) {
		if n.Op != algebra.OpPublish && n.Op != algebra.OpChannelIn {
			r.NewOps++
		}
	})
	return r, nil
}

// CheckAgainstReference runs Apply and the bottom-up reference on plan
// over db and fails t unless they agree on everything but the discovery
// traffic: the rewritten plan, the mappings, the reused, fresh and failed
// counts. A plan of alerters and operators whose top the reference covers
// by the top's own signature must cost exactly two queries (the probe and
// the replica lookup); any other may cost one more than the reference.
// It returns Apply's result.
func CheckAgainstReference(t testing.TB, o Options, plan *algebra.Node, db *kadop.DB) *Result {
	t.Helper()
	before := plan.Tree()
	got, err := o.Apply(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := o.referenceApply(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tree() != before {
		t.Fatalf("Apply modified its input plan:\n%s\nwas\n%s", plan.Tree(), before)
	}
	if got.Plan.Tree() != want.Plan.Tree() || got.Plan.String() != want.Plan.String() {
		t.Errorf("plans differ:\n got\n%s want\n%s", got.Plan.Tree(), want.Plan.Tree())
	}
	if !reflect.DeepEqual(got.Mappings, want.Mappings) {
		t.Errorf("mappings differ:\n got  %+v\n want %+v", got.Mappings, want.Mappings)
	}
	if got.ReusedOps != want.ReusedOps || got.NewOps != want.NewOps || got.FailedLookups != want.FailedLookups {
		t.Errorf("reused/fresh/failed = %d/%d/%d, reference %d/%d/%d",
			got.ReusedOps, got.NewOps, got.FailedLookups, want.ReusedOps, want.NewOps, want.FailedLookups)
	}
	if exactlyCovered(plan, want) {
		if got.Lookups != 2 {
			t.Errorf("exactly covered plan cost %d discovery queries, want 2 (reference %d):\n%s",
				got.Lookups, want.Lookups, plan.Tree())
		}
	} else if got.Lookups > want.Lookups+1 {
		t.Errorf("%d discovery queries, reference %d: a miss may cost one more, no more:\n%s",
			got.Lookups, want.Lookups, plan.Tree())
	}
	return got
}

// exactlyCovered reports whether the reference replaced everything below
// the publisher by one stream found under the top's own signature, on a
// plan of alerters and operators with an operator on top.
func exactlyCovered(plan *algebra.Node, ref *Result) bool {
	if plan.Op != algebra.OpPublish || plan.Inputs[0].Op == algebra.OpAlerter ||
		ref.NewOps != 0 || len(ref.Mappings) != 1 {
		return false
	}
	plain := true
	plan.Inputs[0].Walk(func(n *algebra.Node) {
		plain = plain && n.Op != algebra.OpChannelIn
	})
	return plain && ref.Mappings[0].Signature == plan.Inputs[0].Signature()
}

// deployed compiles src as the deploy chain does before reuse.
func deployed(t *testing.T, src, subscriber string) *algebra.Node {
	t.Helper()
	return algebra.MarkBodyReaders(compile(t, src, subscriber))
}

// groupOver is the programmatic windowed count over the union of
// sources s<lo>..s<hi-1>, placed at w0 and published at mgr.
func groupOver(lo, hi int, channel string) *algebra.Node {
	var branches []*algebra.Node
	for i := lo; i < hi; i++ {
		branches = append(branches, algebra.NewAlerter("inCOM", "ws-in", fmt.Sprintf("s%d", i), "e", nil))
	}
	union := &algebra.Node{Op: algebra.OpUnion, Peer: "w0", Inputs: branches, Schema: []string{"e"}}
	group := &algebra.Node{Op: algebra.OpGroup, Peer: "w0", Inputs: []*algebra.Node{union}, Schema: []string{"e"},
		Group: &algebra.GroupSpec{KeyAttr: "callee", Window: "24s"}}
	return algebra.MarkBodyReaders(&algebra.Node{Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{group},
		Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: channel}})
}

// publishTree publishes plan as deploy does with aggregation trees of
// fan-in 3: its groups rewritten into partial and merge nodes.
func publishTree(t *testing.T, db *kadop.DB, plan *algebra.Node, id string, nextID func(string) string) {
	t.Helper()
	tree, _ := aggtree.Rewrite(plan.Clone(), id, aggtree.Config{Degree: 3, Place: func(string) string { return "w1" }})
	if _, err := PublishPlan(db, tree, nextID); err != nil {
		t.Fatal(err)
	}
}

// TestApplyMatchesReference: on every kind of cover the bottom-up pass
// finds — none, an exact match over a join, over a tree-deployed
// aggregate, over a dynamic alerter set, a subsumption partial cover and
// chain, a graft, the body flavour of an alerter, a replica — Apply
// returns what the reference returns, and an exact match costs two
// discovery queries.
func TestApplyMatchesReference(t *testing.T) {
	const (
		base   = `for $e in inCOM(<p>m.com</p>) where $e.callMethod = "Q" return $e by publish as channel "base"`
		narrow = `for $e in inCOM(<p>m.com</p>) where $e.callMethod = "Q" and $e.caller = "x" return $e by publish as channel "narrow"`
		chain  = `for $z in inCOM(<p>m.com</p>) where $z.callMethod = "Q" and $z.caller = "x" and $z.fault != "" return $z by publish as channel "chain"`
		reader = `for $e in inCOM(<p>src</p>) where $e.callMethod = "ping" return $e by channel R`
		bare   = `for $e in inCOM(<p>src</p>) where $e.callMethod = "ping" return <r id="{$e.callId}"/> by channel B`
		dynIn  = `for $j in areRegistered(<p>s.com</p>) for $c in inCOM($j) return $c by publish as channel "in"`
		dynOut = `for $j in areRegistered(<p>s.com</p>) for $c in outCOM($j) return $c by publish as channel "out"`
	)
	for _, c := range []struct {
		name     string
		earlier  []string // deployed first, each through Apply
		plan     func(t *testing.T) *algebra.Node
		exact    bool
		reused   int // operators the cover saves, pinning the kind of cover
		choose   Chooser
		replicas bool // announce a replica of every published stream at "near"
	}{
		{name: "no streams", plan: func(t *testing.T) *algebra.Node { return deployed(t, qosSub, "q") }},
		{name: "exact join", earlier: []string{qosSub}, exact: true, reused: 8,
			plan: func(t *testing.T) *algebra.Node { return deployed(t, qosSub, "q") }},
		{name: "exact group", earlier: []string{"tree:0:8"}, exact: true, reused: 10,
			plan: func(*testing.T) *algebra.Node { return groupOver(0, 8, "again") }},
		{name: "graft", earlier: []string{"tree:0:8"}, reused: 5,
			plan: func(*testing.T) *algebra.Node { return groupOver(0, 5, "part") }},
		{name: "graft and fresh branches", earlier: []string{"tree:2:8"}, reused: 5,
			plan: func(*testing.T) *algebra.Node { return groupOver(0, 7, "wider") }},
		{name: "subsumed", earlier: []string{base}, reused: 1,
			plan: func(t *testing.T) *algebra.Node { return deployed(t, narrow, "q") }},
		{name: "subsumption chain", earlier: []string{base, narrow}, reused: 1,
			plan: func(t *testing.T) *algebra.Node { return deployed(t, chain, "q") }},
		{name: "subsumption full cover", earlier: []string{base, narrow}, reused: 3,
			plan: func(t *testing.T) *algebra.Node { return deployed(t, narrow, "q") }},
		{name: "subsumption chain covering all", earlier: []string{base, narrow, chain}, reused: 3,
			plan: func(t *testing.T) *algebra.Node { return deployed(t, chain, "q") }},
		{name: "body flavour", earlier: []string{reader}, reused: 2,
			plan: func(t *testing.T) *algebra.Node { return deployed(t, bare, "q") }},
		{name: "bare flavour withheld from a reader", earlier: []string{bare},
			plan: func(t *testing.T) *algebra.Node { return deployed(t, reader, "q") }},
		{name: "exact dynamic set", earlier: []string{dynIn}, exact: true, reused: 3,
			plan: func(t *testing.T) *algebra.Node { return deployed(t, dynIn, "q") }},
		{name: "dynamic set of another function", earlier: []string{dynIn}, reused: 1,
			plan: func(t *testing.T) *algebra.Node { return deployed(t, dynOut, "q") }},
		{name: "replica", earlier: []string{qosSub}, exact: true, reused: 8, replicas: true,
			choose: PreferClose(func(a, b string) float64 {
				if b == "near" {
					return 0
				}
				return 1
			}, func(string) int { return 0 }),
			plan: func(t *testing.T) *algebra.Node { return deployed(t, qosSub, "q") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, nextID := newDB(t), idGen()
			o := Options{From: "dht-1", Consumer: "q", Choose: c.choose}
			for _, src := range c.earlier {
				var lo, hi int
				if _, err := fmt.Sscanf(src, "tree:%d:%d", &lo, &hi); err == nil {
					publishTree(t, db, groupOver(lo, hi, "t"), "t", nextID)
					continue
				}
				res := CheckAgainstReference(t, o, deployed(t, src, "p"), db)
				refs, err := PublishPlan(db, res.Plan, nextID)
				if err != nil {
					t.Fatal(err)
				}
				for n, ref := range refs {
					if c.replicas && n.Op != algebra.OpChannelIn {
						if err := db.PublishReplica(ref, stream.Ref{PeerID: "near", StreamID: "r" + ref.StreamID}); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			plan := c.plan(t)
			ref, err := o.referenceApply(plan, db)
			if err != nil {
				t.Fatal(err)
			}
			if got := exactlyCovered(plan, ref); got != c.exact {
				t.Fatalf("the case's cover is exact = %v, want %v: it no longer tests what it names:\n%s", got, c.exact, ref.Plan.Tree())
			}
			res := CheckAgainstReference(t, o, plan, db)
			if res.ReusedOps != c.reused {
				t.Errorf("%d operators reused, want %d:\n%s", res.ReusedOps, c.reused, res.Plan.Tree())
			}
			if c.replicas && !res.Mappings[0].IsReplica {
				t.Errorf("no replica chosen: %+v", res.Mappings)
			}
		})
	}
}

// TestApplyMatchesReferenceOnSignatureSeeds: FuzzSignature's seeds
// (internal/algebra), each pair deployed in turn, every plan applied
// against every database state the pair passes through.
func TestApplyMatchesReferenceOnSignatureSeeds(t *testing.T) {
	for i, pair := range signatureSeedPairs() {
		db, nextID := newDB(t), idGen()
		o := Options{From: "dht-1", Consumer: "mgr"}
		var plans []*algebra.Node
		for _, src := range pair {
			sub, err := p2pml.Parse(src)
			if err != nil {
				t.Fatalf("seed %d: %v", i, err)
			}
			plan, err := algebra.Compile(sub)
			if err != nil {
				continue
			}
			plans = append(plans, algebra.MarkBodyReaders(algebra.Optimize(plan, algebra.DefaultOptions("mgr"))))
		}
		for _, p := range plans {
			res := CheckAgainstReference(t, o, p, db)
			if _, err := PublishPlan(db, res.Plan, nextID); err != nil {
				t.Fatal(err)
			}
			for _, q := range plans {
				CheckAgainstReference(t, o, q, db)
			}
		}
	}
}

// signatureSeedPairs are FuzzSignature's seeds: its signature pairs, and
// FuzzSubscription's seeds each against the next.
func signatureSeedPairs() [][2]string {
	inPeers := func(n int) string {
		var b strings.Builder
		b.WriteString("inCOM(")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "<p>s%d</p>", i)
		}
		b.WriteString(")")
		return b.String()
	}
	pairs := [][2]string{
		{`for $e in inCOM(<p>src</p>) let $d := $e.responseTimestamp - $e.callTimestamp where $d > 0 return $e by channel A`,
			`for $e in inCOM(<p>src</p>) let $d := $e.callTimestamp - $e.responseTimestamp where $d > 0 return $e by channel B`},
		{`for $a in outCOM(<p>x</p>), $b in inCOM(<p>y</p>) return <r id="{$a.callId}"/> by channel A`,
			`for $c in outCOM(<p>x</p>), $d in inCOM(<p>y</p>) return <r id="{$c.callId}"/> by channel B`},
		{`for $r in rssCOM(<p>a</p><feed url="x"/>) return $r by channel A`,
			`for $r in rssCOM(<p>a</p><feed url="y"/>) return $r by channel B`},
		{`for $e in inCOM(<p>src</p>) where 0 < $e.responseTimestamp - ($e.callTimestamp - $e.responseTimestamp) return $e by channel A`,
			`for $e in inCOM(<p>src</p>) where 0 < $e.responseTimestamp - $e.callTimestamp - $e.responseTimestamp return $e by channel B`},
		{`for $j in areRegistered(<p>s</p>) for $c in inCOM($j) return $c by channel A`,
			`for $j in areRegistered(<p>s</p>) for $c in outCOM($j) return $c by channel B`},
		{`for $e in inCOM(<p>s</p>) where $e.callMethod = "$e" return $e by channel A`,
			`for $f in inCOM(<p>s</p>) where $f.callMethod = "$_" return $f by channel B`},
		{`for $e in inCOM(<p>s0</p><p>s1</p>) return $e group on "callee" window "10s" by channel A`,
			`for $e in inCOM(<p>s0</p><p>s1</p>) return $e group on "callee" window "24s" by channel B`},
		{`for $e in inCOM(<p>s0</p><p>s1</p>) return $e group on "callee" window "10s" by channel A`,
			`for $e in inCOM(<p>s0</p><p>s1</p>) return $e group sum of "callTimestamp" on "callee" window "10s" by channel B`},
		{`for $e in inCOM(<p>s</p>) where $e.callMethod = "Q" and $e.caller = "c" return $e by channel A`,
			`for $e in inCOM(<p>s</p>) where $e.callId = "1" return $e by channel B`},
	}
	subs := []string{
		qosSub,
		`for $e in ` + inPeers(8) + ` where $e.callMethod = "Q" return <hit id="{$e.callId}"/> by publish as channel "hits"`,
		`for $e in ` + inPeers(2) + ` return $e group on "callee" window "10s" by channel G`,
		`for $e in ` + inPeers(2) + ` return <x>{$e}</x> by channel X`,
		`for $x in (for $y in ` + inPeers(2) + ` return <q c="{$y.caller}"/>) where $x/q return $x by channel C`,
		`for $j in areRegistered(<p>s.com</p>) for $c in inCOM($j) return $c by channel W`,
		`for $x in channel("a@p") return distinct <a>{$x.k}</a> by file "f"`,
		`for $e in outCOM(<p>a</p><p>b</p>) let $d := $e.responseTimestamp - $e.callTimestamp where $d > 1 return <s d="{$d}"/> by email "x"`,
		`for $e in ` + inPeers(3) + ` return distinct $e group on "callee" window "10s" by channel G`,
		`for $e in ` + inPeers(2) + ` let $d := $e.responseTimestamp - $e.callTimestamp where $d > 1 return $e group on "callee" window "10s" by channel G`,
	}
	for i, s := range subs {
		pairs = append(pairs, [2]string{s, subs[(i+1)%len(subs)]})
	}
	return pairs
}

// TestApplyExactHitAllocs pins what Apply allocates when the stream a
// publisher reads already runs: the probe's signature and lookup, the
// replica lookup and the two nodes of the rewritten plan. The bottom-up
// pass alone, which every call ran before the probe, takes 57.
func TestApplyExactHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a race-instrumented build allocates once more per lookup")
	}
	db, nextID := newDB(t), idGen()
	publishTree(t, db, groupOver(0, 4, "t"), "t", nextID)
	plan := groupOver(0, 4, "again")
	o := Options{From: "dht-1", Consumer: "mgr"}
	if res := CheckAgainstReference(t, o, plan, db); res.NewOps != 0 {
		t.Fatalf("not an exact hit:\n%s", res.Plan.Tree())
	}
	const want = 23
	if got := testing.AllocsPerRun(50, func() { o.Apply(plan, db) }); got != want {
		t.Errorf("Apply's exact hit allocates %v times, want %d", got, want)
	}
}

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool
