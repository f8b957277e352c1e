// Benchmarks backing the experiment tables (`benchrun -list` index, C1–C11).
// Each bench isolates the hot loop of one experiment; `go run
// ./cmd/benchrun` regenerates the full comparison tables around them.
// They are developer tools with no baseline: speed is judged end to end
// by `go run ./bench`, and the allocation counts of the hot paths are
// tier-1 tests in the packages that own them.
package p2pm_test

import (
	"fmt"
	"testing"
	"time"

	"p2pm/internal/alerters"
	"p2pm/internal/algebra"
	"p2pm/internal/dht"
	"p2pm/internal/filter"
	"p2pm/internal/kadop"
	"p2pm/internal/monoid"
	"p2pm/internal/operators"
	"p2pm/internal/p2pml"
	"p2pm/internal/peer"
	"p2pm/internal/reuse"
	"p2pm/internal/simnet"
	"p2pm/internal/soap"
	"p2pm/internal/stream"
	"p2pm/internal/telemetry"
	"p2pm/internal/transport"
	"p2pm/internal/wire"
	"p2pm/internal/workload"
	"p2pm/internal/xmltree"
	"p2pm/internal/xpath"
)

// --- substrate ---

func BenchmarkXMLParse(b *testing.B) {
	gen := workload.NewFilterGen(workload.DefaultFilterGen())
	raw := gen.Document().String()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.Parse(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXMLSerialize(b *testing.B) {
	gen := workload.NewFilterGen(workload.DefaultFilterGen())
	doc := gen.Document()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = doc.String()
	}
}

func BenchmarkSerializedSize(b *testing.B) {
	gen := workload.NewFilterGen(workload.DefaultFilterGen())
	doc := gen.Document()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = doc.SerializedSize()
	}
}

var benchSink int

// BenchmarkStreamPublish is one channel hop of the data path: publish to
// one in-memory subscriber and one subscriber across a simnet link, each
// popping what it was sent.
func BenchmarkStreamPublish(b *testing.B) {
	gen := workload.NewFilterGen(workload.DefaultFilterGen())
	doc := gen.Document()
	nw := simnet.New(simnet.DefaultOptions())
	nw.AddNode("a")
	nw.AddNode("b")
	ch := stream.NewChannel("a", "s")
	local := ch.Subscribe("local", nil)
	remote := stream.NewQueue()
	ch.Subscribe("remote", nw.DeliverHook("a", "b", remote))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Publish(stream.Item{Tree: doc})
		local.Queue.TryPop()
		remote.TryPop()
	}
}

func BenchmarkReadFirstTag(b *testing.B) {
	gen := workload.NewFilterGen(workload.DefaultFilterGen())
	raw := gen.Document().String()
	var attrs []xmltree.Attr // reused, as filter.MatchSerialized reuses its scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if _, attrs, err = xmltree.AppendFirstTag(attrs[:0], raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXPathEval(b *testing.B) {
	gen := workload.NewFilterGen(workload.DefaultFilterGen())
	doc := gen.Document()
	q := xpath.MustCompile(`//body//param[@p1 = "x2"]`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Matches(doc, nil)
	}
}

// --- C1/C2: the Filter ---

func filterWorld(b *testing.B, subs int, complexFrac float64) (*filter.Filter, []*xmltree.Node) {
	b.Helper()
	cfg := workload.DefaultFilterGen()
	cfg.ComplexFraction = complexFrac
	gen := workload.NewFilterGen(cfg)
	f := filter.New()
	for _, s := range gen.Subscriptions(subs) {
		if err := f.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	return f, gen.Documents(256)
}

func benchFilterMode(b *testing.B, subs int, mode filter.Mode) {
	f, docs := filterWorld(b, subs, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.MatchMode(docs[i%len(docs)], mode); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterTwoStage(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) { benchFilterMode(b, n, filter.ModeTwoStage) })
	}
}

func BenchmarkFilterNaive(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) { benchFilterMode(b, n, filter.ModeNaive) })
	}
}

func BenchmarkFilterYFilterOnly(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) { benchFilterMode(b, n, filter.ModeYFilterOnly) })
	}
}

// serializedWorld is filterWorld for MatchSerialized: the subscriptions
// (also returned, for churn) in a filter, and serialized documents.
func serializedWorld(b *testing.B, subs int, complexFrac float64) (*filter.Filter, []filter.Subscription, []string) {
	b.Helper()
	cfg := workload.DefaultFilterGen()
	cfg.ComplexFraction = complexFrac
	gen := workload.NewFilterGen(cfg)
	f := filter.New()
	all := gen.Subscriptions(subs)
	for _, s := range all {
		if err := f.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	return f, all, gen.SerializedDocuments(256)
}

// BenchmarkFilterSerializedFastPath measures the first-tag-only path: no
// complex subscriptions, bodies never parsed.
func BenchmarkFilterSerializedFastPath(b *testing.B) {
	f, _, raws := serializedWorld(b, 10000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.MatchSerialized(raws[i%len(raws)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterSerialized is the whole hot path on serialized input
// with complex subscriptions active: first tag, preFilter, AES, and for
// most documents the parse and the YFilter stage.
func BenchmarkFilterSerialized(b *testing.B) {
	b.Run("subs=10000", func(b *testing.B) {
		f, _, raws := serializedWorld(b, 10000, 0.3)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.MatchSerialized(raws[i%len(raws)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFilterChurn is one subscription change beside matching at 10k
// subscriptions: Remove, Add, and the match that follows.
func BenchmarkFilterChurn(b *testing.B) {
	f, subs, raws := serializedWorld(b, 10000, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := subs[i%len(subs)]
		f.Remove(s.ID)
		if err := f.Add(s); err != nil {
			b.Fatal(err)
		}
		if _, err := f.MatchSerialized(raws[i%len(raws)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C3: AES ---

func BenchmarkAESMatch(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			a := filter.NewAES()
			rng := newBenchRand(1)
			for i := 0; i < n; i++ {
				var seq []int
				for c := 0; c < 60; c++ {
					if rng.Intn(20) == 0 {
						seq = append(seq, c)
					}
				}
				if len(seq) == 0 {
					seq = []int{i % 60}
				}
				if err := a.Insert(seq, i); err != nil {
					b.Fatal(err)
				}
			}
			satisfied := []int{3, 7, 12, 25, 31, 44, 58}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Match(satisfied)
			}
		})
	}
}

// --- C4: YFilter ---

func BenchmarkYFilterShared(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			gen := workload.NewFilterGen(workload.DefaultFilterGen())
			yf := filter.NewYFilter()
			for i := 0; i < n; i++ {
				if err := yf.Add(i, gen.Query()); err != nil {
					b.Fatal(err)
				}
			}
			docs := gen.Documents(64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				yf.MatchAll(docs[i%len(docs)])
			}
		})
	}
}

func BenchmarkYFilterIndependentBaseline(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			gen := workload.NewFilterGen(workload.DefaultFilterGen())
			queries := make([]*xpath.Path, n)
			for i := range queries {
				queries[i] = gen.Query()
			}
			docs := gen.Documents(64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := docs[i%len(docs)]
				for _, q := range queries {
					q.Matches(d, nil)
				}
			}
		})
	}
}

// --- C5/C7: whole-system (per-op: one full scenario) ---

func benchMeteoScenario(b *testing.B, pushdown, reuseOn bool, managers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := peer.DefaultConfig()
		opts.Pushdown = pushdown
		opts.Reuse = reuseOn
		sys := peer.MustSystem(opts)
		cfg := workload.DefaultMeteo()
		cfg.Calls = 10
		if err := workload.SetupMeteo(sys, cfg); err != nil {
			b.Fatal(err)
		}
		sub := workload.MeteoSubscription(cfg.Clients, cfg.Server)
		var tasks []*peer.Task
		for m := 0; m < managers; m++ {
			mgr := sys.MustAddPeer(fmt.Sprintf("mgr-%d", m))
			t, err := mgr.Subscribe(sub)
			if err != nil {
				b.Fatal(err)
			}
			tasks = append(tasks, t)
		}
		if _, err := workload.RunMeteo(sys, cfg); err != nil {
			b.Fatal(err)
		}
		for _, t := range tasks {
			t.Stop()
			t.Results().Drain()
		}
	}
}

func BenchmarkScenarioPushdown(b *testing.B)   { benchMeteoScenario(b, true, false, 1) }
func BenchmarkScenarioNoPushdown(b *testing.B) { benchMeteoScenario(b, false, false, 1) }
func BenchmarkScenarioReuse4(b *testing.B)     { benchMeteoScenario(b, true, true, 4) }
func BenchmarkScenarioNoReuse4(b *testing.B)   { benchMeteoScenario(b, true, false, 4) }

// BenchmarkWSAlertFanout is one monitored call observed by N alerters
// attached to the endpoint's tap (no-op emits): the alert is built once
// per exchange, so allocs/op is the same for every N and ns/op grows
// only by N sequence-number stamps.
func BenchmarkWSAlertFanout(b *testing.B) {
	for _, subs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			nw := simnet.New(simnet.DefaultOptions())
			fabric := soap.NewFabric(nw)
			srv := fabric.Endpoint("srv")
			srv.Register("temp", func(*xmltree.Node) (*xmltree.Node, error) {
				return xmltree.ElemText("temp", "21"), nil
			}, nil)
			tap := alerters.NewTap("srv", alerters.Inbound, nw.Clock().Now)
			srv.OnInbound(tap.Hook())
			for i := 0; i < subs; i++ {
				tap.Attach("inCOM@srv", true, func(stream.Item) {})
			}
			client, params := fabric.Endpoint("client"), xmltree.ElemText("city", "paris")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Invoke("srv", "temp", params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- C8/C10: Join ---

func benchJoin(b *testing.B, useIndex bool, window time.Duration) {
	j := &operators.Join{
		LeftKey:  operators.AttrKey("k"),
		RightKey: operators.AttrKey("k"),
		UseIndex: useIndex,
		Window:   window,
	}
	sink := func(stream.Item) {}
	const history = 10000
	for i := 0; i < history; i++ {
		l := xmltree.Elem("l")
		l.SetAttr("k", fmt.Sprintf("%d", i))
		j.Accept(0, stream.Item{Tree: l, Time: time.Duration(i) * time.Millisecond}, sink)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := xmltree.Elem("r")
		r.SetAttr("k", fmt.Sprintf("%d", i%history))
		j.Accept(1, stream.Item{Tree: r, Time: history * time.Millisecond}, sink)
	}
}

func BenchmarkJoinIndexed(b *testing.B)  { benchJoin(b, true, 0) }
func BenchmarkJoinScan(b *testing.B)     { benchJoin(b, false, 0) }
func BenchmarkJoinWindowed(b *testing.B) { benchJoin(b, true, time.Hour) }

// --- C9: KadoP discovery ---

func BenchmarkKadopDiscovery(b *testing.B) {
	for _, peers := range []int{100, 1000} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			ring := dht.New()
			for i := 0; i < peers; i++ {
				if err := ring.Join(fmt.Sprintf("peer-%d", i)); err != nil {
					b.Fatal(err)
				}
			}
			db := kadop.New(ring)
			for i := 0; i < peers*10; i++ {
				def := &kadop.StreamDef{
					Ref:       stream.Ref{PeerID: fmt.Sprintf("peer-%d", i%peers), StreamID: fmt.Sprintf("s%d", i)},
					Operator:  "inCOM",
					Signature: fmt.Sprintf("inCOM(peer-%d)#%d", i%peers, i),
				}
				if err := db.Publish(def); err != nil {
					b.Fatal(err)
				}
			}
			// Steady state: every descriptor has been decoded once (the
			// first decode of a record is benchrun C9's cold lookup).
			for i := 0; i < peers; i++ {
				if _, _, err := db.FindAlerters("peer-0", fmt.Sprintf("peer-%d", i), "inCOM"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := db.FindAlerters(fmt.Sprintf("peer-%d", i%peers),
					fmt.Sprintf("peer-%d", (i*13)%peers), "inCOM"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- C11 / language plumbing ---

func BenchmarkP2PMLParse(b *testing.B) {
	cfg := workload.DefaultMeteo()
	src := workload.MeteoSubscription(cfg.Clients, cfg.Server)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p2pml.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubsumptionSubscribe measures subscribing the k-th task of a
// nested-condition chain (X1): discovery + residual deployment cost.
func BenchmarkSubsumptionSubscribe(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := peer.MustSystem(peer.DefaultConfig())
		m := sys.MustAddPeer("m.com")
		m.Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
			return xmltree.Elem("ok"), nil
		}, nil)
		base := sys.MustAddPeer("p0")
		t0, err := base.Subscribe(`for $e in inCOM(<p>m.com</p>) where $e.callMethod = "Q" return $e by publish as channel "c0"`)
		if err != nil {
			b.Fatal(err)
		}
		p1 := sys.MustAddPeer("p1")
		t1, err := p1.Subscribe(`for $e in inCOM(<p>m.com</p>) where $e.callMethod = "Q" and $e.fault != "" return $e by publish as channel "c1"`)
		if err != nil {
			b.Fatal(err)
		}
		t1.Stop()
		t0.Stop()
	}
}

// BenchmarkGroupAccept measures the windowed aggregator's per-item cost.
func BenchmarkGroupAccept(b *testing.B) {
	g := &operators.Group{
		Key:    func(n *xmltree.Node) string { return n.AttrOr("k", "") },
		Window: time.Minute,
	}
	sink := func(stream.Item) {}
	items := make([]stream.Item, 64)
	for i := range items {
		n := xmltree.Elem("e")
		n.SetAttr("k", fmt.Sprintf("key-%d", i%8))
		items[i] = stream.Item{Tree: n, Time: time.Duration(i) * time.Second}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Accept(0, items[i%len(items)], sink)
	}
}

func BenchmarkSubscribeDeployStop(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := peer.MustSystem(peer.DefaultConfig())
		mgr := sys.MustAddPeer("p")
		cfg := workload.DefaultMeteo()
		if err := workload.SetupMeteo(sys, cfg); err != nil {
			b.Fatal(err)
		}
		t, err := mgr.Subscribe(workload.MeteoSubscription(cfg.Clients, cfg.Server))
		if err != nil {
			b.Fatal(err)
		}
		t.Stop()
	}
}

// --- in-network aggregation trees (PR 5) ---

// BenchmarkAggTreeIngest measures the tree's per-item hot path: the
// PartialAgg leaf accumulating raw events (with periodic watermark
// emissions) feeding a Final MergeAgg through partial states — the
// work one event costs the tree, compared against BenchmarkGroupAccept
// (the flat operator's per-item cost).
func BenchmarkAggTreeIngest(b *testing.B) {
	root := &operators.MergeAgg{Final: true}
	sinkFinal := func(stream.Item) {}
	leaf := &operators.PartialAgg{
		Key:    func(n *xmltree.Node) string { return n.AttrOr("k", "") },
		Window: time.Minute,
	}
	forward := func(it stream.Item) { root.Accept(0, it, sinkFinal) }
	items := make([]stream.Item, 64)
	for i := range items {
		n := xmltree.Elem("e")
		n.SetAttr("k", fmt.Sprintf("key-%d", i%8))
		items[i] = stream.Item{Tree: n, Time: time.Duration(i) * time.Second}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := items[i%len(items)]
		it.Time += time.Duration(i/len(items)) * 64 * time.Second // advancing watermark
		leaf.Accept(0, it, forward)
	}
}

// BenchmarkAggTreeRepair measures one interior-node migration on a live
// tree — crash the merge host, run the full FailPeer repair (DHT
// re-placement, checkpoint restore, consumer re-binding, input replay),
// recover the old host. The failover hot path X4's churn rows hammer.
func BenchmarkAggTreeRepair(b *testing.B) {
	opts := peer.DefaultConfig()
	opts.Agg.Degree = 2
	opts.Replay.Buffer = 1024
	opts.Replay.CheckpointInterval = time.Second
	sys := peer.MustSystem(opts)
	mgr := sys.MustAddPeer("mgr")
	var branches []*algebra.Node
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("s%d", i)
		sp := sys.MustAddPeer(name)
		sp.Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
			return xmltree.Elem("ok"), nil
		}, nil)
		sys.Net.AddLoad(name, 1000)
		branches = append(branches, algebra.NewAlerter("inCOM", "ws-in", name, "e", nil))
	}
	sys.Net.AddLoad("mgr", 1000)
	sys.MustAddPeer("w0")
	sys.MustAddPeer("w1")
	sys.SetAggHosts(func(n string) bool { return n[0] == 'w' })
	union := &algebra.Node{Op: algebra.OpUnion, Peer: "w0", Inputs: branches, Schema: []string{"e"}}
	group := &algebra.Node{
		Op: algebra.OpGroup, Peer: "w0", Inputs: []*algebra.Node{union},
		Schema: []string{"e"}, Group: &algebra.GroupSpec{KeyAttr: "callee", Window: "10s"},
	}
	plan := &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{group},
		Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: "agg"},
	}
	task, err := mgr.DeployPlan(plan)
	if err != nil {
		b.Fatal(err)
	}
	defer task.Stop()
	client := sys.MustAddPeer("client")
	for i := 0; i < 8; i++ {
		if _, err := client.Endpoint().Invoke(fmt.Sprintf("s%d", i%4), "Q", nil); err != nil {
			b.Fatal(err)
		}
		sys.Step(time.Second)
	}
	interiors := func() []*algebra.Node {
		var out []*algebra.Node
		task.Plan.Walk(func(n *algebra.Node) {
			if n.AggKey != "" {
				out = append(out, n)
			}
		})
		return out
	}
	if len(interiors()) == 0 {
		b.Fatal("no tree interiors deployed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := interiors()[0].Peer
		sys.FailPeer(victim, sys.Net.Clock().Now())
		sys.RejoinPeer(victim)
	}
}

// --- multi-tenant aggregate sharing (PR 7) ---

// shareBenchPlan builds the share-scenario-shaped windowed group-by-count plan
// over source range [lo, hi).
func shareBenchPlan(lo, hi int, channel string) *algebra.Node {
	var branches []*algebra.Node
	for i := lo; i < hi; i++ {
		branches = append(branches, algebra.NewAlerter("inCOM", "ws-in", fmt.Sprintf("s%d", i), "e", nil))
	}
	union := &algebra.Node{Op: algebra.OpUnion, Peer: "w0", Inputs: branches, Schema: []string{"e"}}
	group := &algebra.Node{
		Op: algebra.OpGroup, Peer: "w0", Inputs: []*algebra.Node{union},
		Schema: []string{"e"},
		Group:  &algebra.GroupSpec{KeyAttr: "callee", Window: "24s"},
	}
	return &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{group},
		Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: channel},
	}
}

// BenchmarkReuseMatch measures the Section 5 reuse pass itself against a
// live shared aggregation tree: bottom-up signature matching, the DHT
// discovery lookups, and the rewrite. "exact" hits the tree root's flat
// alias (a later identical subscription); "graft" covers a contained
// source range from the published partial streams and rewrites to a
// merge over them. This is the per-subscription deploy-time cost the X5
// scaling table amortizes.
func BenchmarkReuseMatch(b *testing.B) {
	const sources = 8
	for _, c := range []struct {
		name   string
		lo, hi int
	}{{"exact", 0, sources}, {"graft", 2, 6}} {
		b.Run(c.name, func(b *testing.B) {
			opts := peer.DefaultConfig()
			opts.Agg.Degree = 3
			sys := peer.MustSystem(opts)
			mgr := sys.MustAddPeer("mgr")
			for i := 0; i < sources; i++ {
				name := fmt.Sprintf("s%d", i)
				sp := sys.MustAddPeer(name)
				sp.Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
					return xmltree.Elem("ok"), nil
				}, nil)
				sys.Net.AddLoad(name, 1000)
			}
			sys.Net.AddLoad("mgr", 1000)
			for i := 0; i < 4; i++ {
				sys.MustAddPeer(fmt.Sprintf("w%d", i))
			}
			sys.SetAggHosts(func(n string) bool { return n[0] == 'w' })
			seed, err := mgr.DeployPlanShared(shareBenchPlan(0, sources, "seed"))
			if err != nil {
				b.Fatal(err)
			}
			defer seed.Stop()
			ro := reuse.Options{
				From:     "mgr",
				Consumer: "mgr",
				Choose:   reuse.PreferClose(sys.Net.Distance, sys.Net.Load),
			}
			probe := shareBenchPlan(c.lo, c.hi, "probe")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ro.Apply(probe, sys.DB)
				if err != nil {
					b.Fatal(err)
				}
				if res.ReusedOps == 0 || res.FailedLookups > 0 {
					b.Fatalf("reuse pass degraded: reused=%d failed=%d", res.ReusedOps, res.FailedLookups)
				}
			}
		})
	}
}

// BenchmarkSharedAggIngest measures the shared tree's per-event hot path
// when one PartialAgg leaf feeds several tenants' Final roots at once —
// the fan-out an event costs a multi-tenant tree, against
// BenchmarkAggTreeIngest's single-tenant cost. Sharing keeps this the
// only per-event work: the unshared alternative runs the whole leaf
// path once per tenant.
func BenchmarkSharedAggIngest(b *testing.B) {
	const tenants = 4
	sinkFinal := func(stream.Item) {}
	roots := make([]*operators.MergeAgg, tenants)
	for i := range roots {
		roots[i] = &operators.MergeAgg{Final: true}
	}
	leaf := &operators.PartialAgg{
		Key:    func(n *xmltree.Node) string { return n.AttrOr("k", "") },
		Window: time.Minute,
	}
	forward := func(it stream.Item) {
		for _, r := range roots {
			r.Accept(0, it, sinkFinal)
		}
	}
	items := make([]stream.Item, 64)
	for i := range items {
		n := xmltree.Elem("e")
		n.SetAttr("k", fmt.Sprintf("key-%d", i%8))
		items[i] = stream.Item{Tree: n, Time: time.Duration(i) * time.Second}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := items[i%len(items)]
		it.Time += time.Duration(i/len(items)) * 64 * time.Second // advancing watermark
		leaf.Accept(0, it, forward)
	}
}

type benchRand struct{ state uint64 }

func newBenchRand(seed int64) *benchRand {
	return &benchRand{state: uint64(seed)*2862933555777941757 + 3037000493}
}

func (r *benchRand) Intn(n int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(n))
}

// --- DHT elastic rebalance (PR 4) ---

// benchRing builds a loaded ring: members joined, keys stored.
func benchRing(b *testing.B, members, keys, vnodes int, bound float64) *dht.Ring {
	b.Helper()
	r := dht.New()
	r.SetReplication(2)
	if vnodes > 1 {
		r.SetVirtual(vnodes)
	}
	if bound > 0 {
		r.SetLoadBound(bound)
	}
	for i := 0; i < members; i++ {
		if err := r.Join(fmt.Sprintf("m%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		if err := r.Set(fmt.Sprintf("ckpt|task-%d|op-%d", i/3, i%3), "v"); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// BenchmarkDHTRebalanceJoin measures the membership-change hot path the
// elastic scenarios hammer: one node joining (keys hand off to it) and
// failing again, on a loaded ring. The vnode axis contrasts the classic
// neighborhood rebalance with the fragmented-ownership full re-placement.
func BenchmarkDHTRebalanceJoin(b *testing.B) {
	for _, v := range []int{1, 32} {
		b.Run(fmt.Sprintf("vnodes=%d", v), func(b *testing.B) {
			r := benchRing(b, 16, 240, v, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.Join("elastic"); err != nil {
					b.Fatal(err)
				}
				if err := r.Fail("elastic"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDHTSpreadPut measures the checkpoint write path under
// bounded-load placement (sticky primary lookup + replica fan-out) —
// the per-sweep cost every operator checkpoint pays with Spread on.
func BenchmarkDHTSpreadPut(b *testing.B) {
	r := benchRing(b, 16, 240, 32, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Set(fmt.Sprintf("ckpt|task-%d|op-%d", (i/3)%80, i%3), "v"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDHTBoundedGet measures the bounded-load read path — the
// checkpoint-restore lookup every migration pays — with and without the
// per-reader location cache. The cache=on leg proves the win: warm
// repeat reads skip the successor scan past full members.
func BenchmarkDHTBoundedGet(b *testing.B) {
	for _, cache := range []bool{false, true} {
		b.Run(fmt.Sprintf("cache=%v", cache), func(b *testing.B) {
			r := benchRing(b, 16, 240, 32, 1.2)
			if cache {
				r.EnableReadCache()
			}
			// Warm the cache (and fault in every lazy path) once.
			for i := 0; i < 240; i++ {
				if _, _, err := r.Get("m0", fmt.Sprintf("ckpt|task-%d|op-%d", i/3, i%3)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := r.Get("m0", fmt.Sprintf("ckpt|task-%d|op-%d", (i/3)%80, i%3)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- sketch monoids (PR 6) ---

// BenchmarkSketchIngest measures each sketch monoid's absorb cost
// against the exact set baseline — the leaf-side work a window of 1024
// events adds to a distinct-count or heavy-hitter state. One iteration
// absorbs the whole batch so the number sits at µs scale, where short
// samples are stable.
func BenchmarkSketchIngest(b *testing.B) {
	for _, name := range []string{"set", "distinct", "freq"} {
		b.Run(name, func(b *testing.B) {
			m, ok := monoid.Lookup(name)
			if !ok {
				b.Fatalf("unknown monoid %q", name)
			}
			vals := make([]string, 1024)
			for i := range vals {
				vals[i] = fmt.Sprintf("user-%d", i%512)
			}
			s := m.Zero()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, v := range vals {
					if err := s.Absorb(v); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSketchMerge measures one wire-level partial merge: decode a
// serialized 2000-value state and fold it in — the interior-node work
// per arriving partial.
func BenchmarkSketchMerge(b *testing.B) {
	for _, name := range []string{"set", "distinct", "freq"} {
		b.Run(name, func(b *testing.B) {
			m, ok := monoid.Lookup(name)
			if !ok {
				b.Fatalf("unknown monoid %q", name)
			}
			acc, other := m.Zero(), m.Zero()
			for i := 0; i < 2000; i++ {
				if err := acc.Absorb(fmt.Sprintf("a-%d", i)); err != nil {
					b.Fatal(err)
				}
				if err := other.Absorb(fmt.Sprintf("b-%d", i)); err != nil {
					b.Fatal(err)
				}
			}
			enc := other.Encode()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec, err := m.Decode(enc)
				if err != nil {
					b.Fatal(err)
				}
				if err := acc.Merge(dec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireEncodeDecode measures the PR 8 transport codec round
// trip for the frames that dominate cluster traffic: a stream item, a
// monoid partial, and a gossip probe with piggybacked updates. Every
// message both backends ship pays exactly this path (the tcp backend
// adds only the 4-byte length prefix), so a codec regression taxes all
// inter-peer traffic at once.
func BenchmarkWireEncodeDecode(b *testing.B) {
	msgs := wireBenchMessages()
	for _, name := range []string{"item", "partial", "probe"} {
		b.Run(name, func(b *testing.B) {
			m := msgs[name]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := wire.Decode(wire.Encode(m)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// wireBenchMessages are the frames that dominate cluster traffic.
func wireBenchMessages() map[string]wire.Message {
	return map[string]wire.Message{
		"item":    &wire.Item{Stream: "s3@relay", Seq: 412, TimeNS: 9_500_000_000, XML: `<call id="7" method="Reserve" to="airline"/>`},
		"partial": &wire.Partial{Fn: "avg", Window: 6, Key: "eu-west", Source: "n3", Count: 1800, State: "1800|45210"},
		"probe": &wire.Probe{Seq: 12, Updates: []wire.GossipUpdate{
			{Peer: "n4", Status: wire.StatusSuspect, Inc: 3},
			{Peer: "n7", Status: wire.StatusAlive, Inc: 9},
		}},
	}
}

// BenchmarkWireAppendEncode measures what the tcp backend's Send pays
// per message (PR 17): the encoding appended in place to a buffer that
// already has room; wire.TestCodecAllocs pins it at 0 allocs/op.
func BenchmarkWireAppendEncode(b *testing.B) {
	msgs := wireBenchMessages()
	for _, name := range []string{"item", "partial", "probe"} {
		b.Run(name, func(b *testing.B) {
			m := msgs[name]
			buf := make([]byte, 0, 4096)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = wire.AppendEncode(buf[:0], m)
			}
		})
	}
}

// BenchmarkTCPLoopback measures one item and its ack across two
// ListenTCP endpoints on loopback with 64 items in flight — encode into
// the link buffer, batched socket write, buffered frame read, decode,
// handler, and the same again for the ack (PR 17). allocs/op is what
// both directions allocate per item, the handlers' Ack included.
func BenchmarkTCPLoopback(b *testing.B) {
	src, err := transport.ListenTCP("src", "127.0.0.1:0", transport.TCPOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	dst, err := transport.ListenTCP("dst", "127.0.0.1:0", transport.TCPOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer dst.Close()
	src.AddPeer("dst", dst.Addr())
	dst.AddPeer("src", src.Addr())
	dst.Handle(func(from string, m wire.Message) {
		dst.Send(from, &wire.Ack{Seq: m.(*wire.Item).Seq}) //nolint:errcheck // src is registered
	})
	slots := make(chan struct{}, 64) // items in flight; an ack frees one
	src.Handle(func(string, wire.Message) { <-slots })
	item := wireBenchMessages()["item"].(*wire.Item)
	send := func() {
		slots <- struct{}{}
		if err := src.Send("dst", item); err != nil {
			b.Fatal(err)
		}
	}
	drain := func() { // every slot free again: every item acked
		for i := 0; i < cap(slots); i++ {
			slots <- struct{}{}
		}
		for i := 0; i < cap(slots); i++ {
			<-slots
		}
	}
	send() // dial both ways before the clock starts
	drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	drain()
	b.StopTimer()
	if st := src.Stats(); st.Dropped != 0 || st.Received != uint64(b.N)+1 {
		b.Fatalf("src stats %+v after %d items", st, b.N)
	}
}

// --- self-adaptive runtime (PR 9) ---

// aggBenchWorld builds the small aggregation deployment the adaptive
// benches reshape: 8 sources, degree-4 tree, replay armed.
func aggBenchWorld(b *testing.B) (*peer.System, *peer.Task) {
	b.Helper()
	opts := peer.DefaultConfig()
	opts.Agg.Degree = 4
	opts.Replay.Buffer = 1024
	opts.Replay.CheckpointInterval = time.Second
	sys := peer.MustSystem(opts)
	mgr := sys.MustAddPeer("mgr")
	var branches []*algebra.Node
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("s%d", i)
		sp := sys.MustAddPeer(name)
		sp.Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
			return xmltree.Elem("ok"), nil
		}, nil)
		branches = append(branches, algebra.NewAlerter("inCOM", "ws-in", name, "e", nil))
	}
	for i := 0; i < 3; i++ {
		sys.MustAddPeer(fmt.Sprintf("w%d", i))
	}
	sys.SetAggHosts(func(n string) bool { return n[0] == 'w' })
	union := &algebra.Node{Op: algebra.OpUnion, Peer: "w0", Inputs: branches, Schema: []string{"e"}}
	group := &algebra.Node{
		Op: algebra.OpGroup, Peer: "w0", Inputs: []*algebra.Node{union},
		Schema: []string{"e"}, Group: &algebra.GroupSpec{KeyAttr: "callee", Window: "10s"},
	}
	plan := &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{group},
		Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: "agg"},
	}
	task, err := mgr.DeployPlan(plan)
	if err != nil {
		b.Fatal(err)
	}
	client := sys.MustAddPeer("client")
	for i := 0; i < 8; i++ {
		if _, err := client.Endpoint().Invoke(fmt.Sprintf("s%d", i%8), "Q", nil); err != nil {
			b.Fatal(err)
		}
		sys.Step(time.Second)
	}
	return sys, task
}

// BenchmarkAdaptiveRechunk measures one full SplitInterior transaction —
// cut capture, plan re-chunk, channel migration, sub-interior spin-up
// and the immediate checkpoint — on a freshly driven degree-4 tree.
func BenchmarkAdaptiveRechunk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, task := aggBenchWorld(b)
		var key string
		task.Plan.Walk(func(n *algebra.Node) {
			if key == "" && n.AggKey != "" && len(n.Inputs) >= 4 {
				key = n.AggKey
			}
		})
		if key == "" {
			b.Fatal("no splittable interior")
		}
		b.StartTimer()
		if _, err := sys.SplitInterior(task, key); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		task.Stop()
		b.StartTimer()
	}
}

// BenchmarkTelemetryCounter measures the registry's hot path: one
// pre-registered counter increment, the cost every instrumented seam
// (transport send, wire decode, DHT get) pays per event. Must stay a
// single uncontended atomic add — 0 allocs/op, enforced by
// telemetry.TestZeroAllocHotPath; this bench times it.
func BenchmarkTelemetryCounter(b *testing.B) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("bench_events_total", telemetry.L("peer", "n1"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkTelemetrySnapshot measures a deterministic full-registry
// snapshot — the operation MetricsSysmon and the HTTP exporter run per
// period — over a realistically sized registry: 48 labelled series plus
// an 8-bucket histogram.
func BenchmarkTelemetrySnapshot(b *testing.B) {
	reg := telemetry.NewRegistry()
	for i := 0; i < 24; i++ {
		p := telemetry.L("peer", fmt.Sprintf("n%02d", i))
		reg.Counter("bench_sent_total", p).Add(uint64(i))
		reg.Gauge("bench_depth", p).Set(int64(i))
	}
	h := reg.Histogram("bench_step_ns", telemetry.ExpBounds(1000, 10, 8))
	for i := 0; i < 1000; i++ {
		h.Observe(int64(i) * 997)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap := reg.Snapshot(); len(snap.Metrics) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkHealthScore measures one adaptive gossip protocol period —
// probe rounds, piggyback application, Lifeguard health bookkeeping and
// the suspicion sweep — across a 16-member degraded membership.
func BenchmarkHealthScore(b *testing.B) {
	sys := peer.MustSystem(peer.DefaultConfig())
	for i := 0; i < 16; i++ {
		sys.MustAddPeer(fmt.Sprintf("p%d", i))
	}
	sys.StartGossipDetector(peer.GossipOptions{
		Seed: 9, ProbeInterval: time.Second, Suspicion: time.Second,
		Adaptive: true,
	})
	for i := 0; i < 4; i++ {
		sys.Step(time.Second)
	}
	// Two members slow-but-alive: health scores stay exercised.
	for i := 0; i < 16; i++ {
		p := fmt.Sprintf("p%d", i)
		for _, victim := range []string{"p3", "p7"} {
			if p == victim {
				continue
			}
			sys.Net.SetExtraDelay(p, victim, 400*time.Millisecond)
			sys.Net.SetExtraDelay(victim, p, 400*time.Millisecond)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step(time.Second)
	}
}
