package experiments

import (
	"fmt"
	"strings"

	"p2pm/internal/algebra"
	"p2pm/internal/dht"
	"p2pm/internal/filter"
	"p2pm/internal/kadop"
	"p2pm/internal/peer"
	"p2pm/internal/reuse"
	"p2pm/internal/stream"
	"p2pm/internal/workload"
	"p2pm/internal/xpath"
)

func init() {
	register("F1", "Figure 1: the QoS subscription end to end", runF1)
	register("F2", "Figure 2: peer architecture", runF2)
	register("F3", "Figure 3: subscription processing chain", runF3)
	register("F4", "Figure 4: distributed plan placement", runF4)
	register("F5", "Figure 5: filter pipeline structure", runF5)
	register("F6", "Figure 6: AES hash-tree worked example", runF6)
	register("F7", "Figure 7: stream replication and reuse", runF7)
}

func runF1(s Scale) (*Result, error) {
	res := &Result{ID: "F1", Claim: "Figure 1: detect GetTemperature answers slower than 10s for clients of meteo.com"}
	sys := peer.MustSystem(peer.DefaultConfig())
	mgr := sys.MustAddPeer("p")
	cfg := workload.DefaultMeteo()
	if s == Quick {
		cfg.Calls = 8
	}
	if err := workload.SetupMeteo(sys, cfg); err != nil {
		return nil, err
	}
	task, err := mgr.Subscribe(workload.MeteoSubscription(cfg.Clients, cfg.Server))
	if err != nil {
		return nil, err
	}
	slow, err := workload.RunMeteo(sys, cfg)
	if err != nil {
		return nil, err
	}
	task.Stop()
	incidents := task.Results().Drain()
	table := NewTable("incidents", "calls", "slow calls", "incidents detected")
	table.AddRow(cfg.Calls, slow, len(incidents))
	res.Tables = append(res.Tables, table)
	for i, it := range incidents {
		if i < 3 {
			res.Notes = append(res.Notes, it.Tree.String())
		}
	}
	res.Holds = len(incidents) == slow && slow > 0
	return res, nil
}

func runF2(Scale) (*Result, error) {
	res := &Result{ID: "F2", Claim: "Figure 2: a peer hosts a Subscription Manager plus alerters, stream processors and publishers"}
	sys := peer.MustSystem(peer.DefaultConfig())
	mgr := sys.MustAddPeer("p")
	cfg := workload.DefaultMeteo()
	if err := workload.SetupMeteo(sys, cfg); err != nil {
		return nil, err
	}
	task, err := mgr.Subscribe(workload.MeteoSubscription(cfg.Clients, cfg.Server))
	if err != nil {
		return nil, err
	}
	defer func() { task.Stop(); task.Results().Drain() }()

	byPeer := map[string][]string{}
	task.Plan.Walk(func(n *algebra.Node) {
		byPeer[n.Peer] = append(byPeer[n.Peer], n.Label())
	})
	table := NewTable("module placement", "peer", "modules")
	for _, p := range []string{"p", "a.com", "b.com", "meteo.com"} {
		table.AddRow(p, strings.Join(byPeer[p], " | "))
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes, "manager components: "+strings.Join(mgr.Components(), ", "))
	res.Holds = len(byPeer["meteo.com"]) > 0 && len(byPeer["a.com"]) > 0
	return res, nil
}

func runF3(Scale) (*Result, error) {
	res := &Result{ID: "F3", Claim: "Figure 3: subscription → compiled plan → optimized plan → deployed task"}
	cfg := workload.DefaultMeteo()
	src := workload.MeteoSubscription(cfg.Clients, cfg.Server)
	ex, err := peer.Explain(src, "p")
	if err != nil {
		return nil, err
	}
	table := NewTable("processing chain", "stage", "operators", "rendering")
	table.AddRow("compiled (@any)", ex.NaivePlan.Count(), ex.NaivePlan.String())
	table.AddRow("optimized", ex.Optimized.Count(), ex.Optimized.String())
	res.Tables = append(res.Tables, table)
	concrete := true
	ex.Optimized.Walk(func(n *algebra.Node) {
		if n.Peer == algebra.AnyPeer {
			concrete = false
		}
	})
	res.Holds = concrete
	return res, nil
}

func runF4(Scale) (*Result, error) {
	res := &Result{ID: "F4", Claim: "Figure 4: σ at a.com/b.com, ∪ at b.com, ⋈ and Π at meteo.com, publisher at p, fragments linked by channels"}
	cfg := workload.DefaultMeteo()
	ex, err := peer.Explain(workload.MeteoSubscription(cfg.Clients, cfg.Server), "p")
	if err != nil {
		return nil, err
	}
	got := ex.Optimized.String()
	want := "publisher@p(Π@meteo.com(⋈@meteo.com(∪@b.com(σ@a.com(out@a.com), σ@b.com(out@b.com)), in@meteo.com)))"
	table := NewTable("plan rendering", "which", "plan")
	table.AddRow("produced", got)
	table.AddRow("figure 4", want)
	res.Tables = append(res.Tables, table)
	res.Holds = got == want
	res.Notes = append(res.Notes,
		"the paper additionally filters in-calls (σF'@meteo.com); our compiler keeps conditions exactly where the subscription states them")
	return res, nil
}

func runF5(s Scale) (*Result, error) {
	res := &Result{ID: "F5", Claim: "Figure 5: preFilter → AESFilter → YFilterσ with offline adjustment"}
	f, gen := buildFilter(1000, 0.3)
	nDocs := 100
	if s == Quick {
		nDocs = 30
	}
	for _, raw := range gen.SerializedDocuments(nDocs) {
		if _, err := f.MatchSerialized(raw); err != nil {
			return nil, err
		}
	}
	st := f.Stats()
	table := NewTable("pipeline stage activity over serialized documents",
		"docs", "preFilter evals", "AES probes", "yfilter runs", "yfilter skips", "bodies parsed", "bodies skipped")
	table.AddRow(st.Docs, st.PreFilterEvals, st.AESProbes, st.YFilterRuns, st.YFilterSkips, st.BodiesParsed, st.BodiesSkipped)
	res.Tables = append(res.Tables, table)
	// Offline adjustment: the dotted arrows — subscriptions change, the
	// structures are adjusted in place, matching continues.
	f.Remove("sub-00000")
	if err := f.Add(filter.Subscription{ID: "late", Simple: []filter.Cond{{Attr: "a00", Op: xpath.OpEq, Value: "v00"}}}); err != nil {
		return nil, err
	}
	if _, err := f.MatchSerialized(`<envelope a00="v00"/>`); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, "subscription add/remove at runtime adjusted the condition index, AES and YFilter in place (offline adjustment path)")
	res.Holds = st.YFilterSkips > 0 && st.BodiesSkipped > 0
	return res, nil
}

func runF6(Scale) (*Result, error) {
	res := &Result{ID: "F6", Claim: "Figure 6: hash-tree for Q1..Q6; document satisfying {C1,C3} matches Q5 and activates Q3,Q4"}
	a := filter.NewAES()
	const (
		c1, c2, c3, c4 = 1, 2, 3, 4
	)
	seqs := map[int][]int{1: {c1, c2}, 2: {c1, c2}, 3: {c3}, 4: {c1, c3}, 5: {c1}, 6: {c1, c2, c4}}
	for q := 1; q <= 6; q++ {
		if err := a.Insert(seqs[q], q); err != nil {
			return nil, err
		}
	}
	matched, probes := a.Match([]int{c1, c3})
	table := NewTable("worked example", "satisfied", "matched/active subscriptions", "probes")
	table.AddRow("C1,C3", fmt.Sprint(matched), probes)
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes, "hash-tree structure:\n"+a.Dump(func(id int) string { return fmt.Sprintf("C%d", id) }))
	res.Holds = fmt.Sprint(matched) == "[3 4 5]"
	return res, nil
}

func runF7(Scale) (*Result, error) {
	res := &Result{ID: "F7", Claim: "Figure 7: filters and joins discovered over original streams; replicas substituted by the optimizer"}
	ring := dht.New()
	for i := 0; i < 16; i++ {
		if err := ring.Join(fmt.Sprintf("dht-%d", i)); err != nil {
			return nil, err
		}
	}
	db := kadop.New(ring)
	// The Figure 7 population: alerters on p1/p2, a filter of s1@p1, a
	// join of the filter with p2's out-calls, and a replica of s1@p1.
	defs := []*kadop.StreamDef{
		{Ref: ref("s1@p1"), Operator: "inCOM", Signature: "inCOM(p1)"},
		{Ref: ref("s2@p2"), Operator: "outCOM", Signature: "outCOM(p2)"},
		{Ref: ref("s3@p1"), Operator: "Filter", Signature: "Select{F}(inCOM(p1))", Operands: []stream.Ref{ref("s1@p1")}},
		{Ref: ref("s9@p3"), Operator: "Join", Signature: "Join{P}(Select{F}(inCOM(p1)),outCOM(p2))",
			Operands: []stream.Ref{ref("s3@p1"), ref("s2@p2")}},
	}
	for _, d := range defs {
		if err := db.PublishIndexed(d); err != nil {
			return nil, err
		}
	}
	if err := db.PublishReplica(ref("s1@p1"), ref("r1@p4")); err != nil {
		return nil, err
	}

	table := NewTable("discovery queries (Section 5)", "query", "answer")
	q1, err := db.QueryXPath(`/Stream[@PeerId = $p1][Operator/inCOM]`, map[string]string{"p1": "p1"})
	if err != nil {
		return nil, err
	}
	table.AddRow("alerter on p1?", renderRefs(q1))
	q2, err := db.QueryXPath(`/Stream[Operator/Filter][Operands/Operand[@OPeerId=$p1][@OStreamId=$s1]]`,
		map[string]string{"p1": "p1", "s1": "s1"})
	if err != nil {
		return nil, err
	}
	table.AddRow("filter of s1@p1?", renderRefs(q2))
	q3, err := db.QueryXPath(`/Stream[Operator/Join][Operands/Operand[@OPeerId=$p1][@OStreamId=$s3]][Operands/Operand[@OPeerId=$p2][@OStreamId=$s2]]`,
		map[string]string{"p1": "p1", "s3": "s3", "p2": "p2", "s2": "s2"})
	if err != nil {
		return nil, err
	}
	table.AddRow("join of s3@p1 and s2@p2?", renderRefs(q3))
	replicas, _, err := db.Replicas("", ref("s1@p1"))
	if err != nil {
		return nil, err
	}
	table.AddRow("replicas of s1@p1", fmt.Sprint(replicas))
	res.Tables = append(res.Tables, table)

	// Replica selection: a consumer near p4 picks the replica.
	choose := reuse.PreferClose(
		func(a, b string) float64 {
			if b == "p4" {
				return 0.1
			}
			return 0.8
		},
		func(string) int { return 0 })
	picked := choose("consumer", ref("s1@p1"), replicas)
	res.Notes = append(res.Notes, fmt.Sprintf("optimizer picked provider %s for a consumer close to p4", picked))
	res.Holds = len(q1) == 1 && len(q2) == 1 && len(q3) == 1 && picked == ref("r1@p4")
	return res, nil
}

func ref(s string) stream.Ref {
	r, err := stream.ParseRef(s)
	if err != nil {
		panic(err)
	}
	return r
}

func renderRefs(defs []*kadop.StreamDef) string {
	parts := make([]string, len(defs))
	for i, d := range defs {
		parts[i] = d.Ref.String()
	}
	return strings.Join(parts, ", ")
}
