package experiments

import (
	"fmt"
	"time"

	"p2pm/internal/dht"
	"p2pm/internal/kadop"
	"p2pm/internal/operators"
	"p2pm/internal/peer"
	"p2pm/internal/stream"
	"p2pm/internal/workload"
	"p2pm/internal/xmltree"
)

func init() {
	register("C5", "selection pushdown saves communication", runC5)
	register("C7", "stream reuse saves CPU and network", runC7)
	register("C8", "indexed join history vs linear scan", runC8)
	register("C9", "KadoP stream discovery at scale", runC9)
	register("C10", "join-history garbage collection (future work)", runC10)
	register("C11", "motivating workloads end to end", runC11)
}

// runC5 measures the Figure 4 topology with and without selection
// pushdown, sweeping the fraction of matching (slow) calls.
func runC5(s Scale) (*Result, error) {
	res := &Result{
		ID:    "C5",
		Claim: `"the selections were pushed as much as possible to the proximity of the sources to save on communications" (§3.3)`,
	}
	calls := 60
	if s == Quick {
		calls = 20
	}
	table := NewTable("bytes on the wire vs selectivity (Figure 4 topology)",
		"slow frac", "pushdown bytes", "no-pushdown bytes", "saved %")
	holds := true
	for _, slowEvery := range []int{2, 5, 0 /* never slow */} {
		run := func(pushdown bool) (uint64, error) {
			opts := peer.DefaultConfig()
			opts.Pushdown = pushdown
			opts.Reuse = false
			sys := peer.MustSystem(opts)
			mgr := sys.MustAddPeer("p")
			cfg := workload.DefaultMeteo()
			cfg.Calls = calls
			cfg.SlowEvery = slowEvery
			if err := workload.SetupMeteo(sys, cfg); err != nil {
				return 0, err
			}
			task, err := mgr.Subscribe(workload.MeteoSubscription(cfg.Clients, cfg.Server))
			if err != nil {
				return 0, err
			}
			if _, err := workload.RunMeteo(sys, cfg); err != nil {
				return 0, err
			}
			task.Stop()
			task.Results().Drain()
			return sys.Net.Totals().Bytes, nil
		}
		with, err := run(true)
		if err != nil {
			return nil, err
		}
		without, err := run(false)
		if err != nil {
			return nil, err
		}
		frac := 0.0
		if slowEvery > 0 {
			frac = 1 / float64(slowEvery)
		}
		saved := 100 * (1 - float64(with)/float64(without))
		table.AddRow(frac, with, without, saved)
		if with >= without {
			holds = false
		}
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes, "savings grow as selectivity drops: rejected alerts never leave their source peer")
	res.Holds = holds
	return res, nil
}

// runC7 measures k overlapping subscriptions with and without the reuse
// pass: deployed operators, operator work (items processed) and bytes.
func runC7(s Scale) (*Result, error) {
	res := &Result{
		ID:    "C7",
		Claim: `"to determine which already existing streams may be reused for that task to save CPU consumption and network traffic" (§5)`,
	}
	subscribers := []int{1, 2, 4, 8}
	calls := 40
	if s == Quick {
		subscribers = []int{1, 2, 4}
		calls = 15
	}
	table := NewTable("k identical subscriptions, reuse on vs off",
		"k", "ops (reuse)", "ops (no reuse)", "items (reuse)", "items (no reuse)", "bytes (reuse)", "bytes (no reuse)")
	holds := true
	for _, k := range subscribers {
		run := func(reuseOn bool) (ops int, items uint64, bytes uint64, err error) {
			opts := peer.DefaultConfig()
			opts.Reuse = reuseOn
			sys := peer.MustSystem(opts)
			cfg := workload.DefaultMeteo()
			cfg.Calls = calls
			cfg.SlowEvery = 2
			if err := workload.SetupMeteo(sys, cfg); err != nil {
				return 0, 0, 0, err
			}
			sub := workload.MeteoSubscription(cfg.Clients, cfg.Server)
			var tasks []*peer.Task
			for i := 0; i < k; i++ {
				mgr := sys.MustAddPeer(fmt.Sprintf("mgr-%d", i))
				t, err := mgr.Subscribe(sub)
				if err != nil {
					return 0, 0, 0, err
				}
				tasks = append(tasks, t)
				ops += t.OperatorsDeployed()
			}
			if _, err := workload.RunMeteo(sys, cfg); err != nil {
				return 0, 0, 0, err
			}
			for _, t := range tasks {
				t.Stop()
			}
			for _, t := range tasks {
				t.Results().Drain()
				items += t.ItemsProcessed()
			}
			return ops, items, sys.Net.Totals().Bytes, nil
		}
		opsR, itemsR, bytesR, err := run(true)
		if err != nil {
			return nil, err
		}
		opsN, itemsN, bytesN, err := run(false)
		if err != nil {
			return nil, err
		}
		table.AddRow(k, opsR, opsN, itemsR, itemsN, bytesR, bytesN)
		if k > 1 && (opsR >= opsN || itemsR >= itemsN) {
			holds = false
		}
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes, "with reuse, operator count stays flat in k; without, it grows linearly")
	res.Holds = holds
	return res, nil
}

// runC8 regenerates "An index over that history is used to speed up the
// search" for the Join operator.
func runC8(s Scale) (*Result, error) {
	res := &Result{
		ID:    "C8",
		Claim: `"the history of the other stream is searched ... An index over that history is used to speed up the search" (§3.1, Join)`,
	}
	sizes := []int{1000, 10000, 50000}
	if s == Quick {
		sizes = []int{1000, 5000}
	}
	probesTable := NewTable("probe counts per arriving item",
		"history size", "indexed probes", "scan probes")
	holds := true
	for _, size := range sizes {
		mkJoin := func(useIndex bool) uint64 {
			j := &operators.Join{
				LeftKey:  operators.AttrKey("k"),
				RightKey: operators.AttrKey("k"),
				UseIndex: useIndex,
			}
			sink := func(stream.Item) {}
			for i := 0; i < size; i++ {
				tree := xmltree.Elem("l")
				tree.SetAttr("k", fmt.Sprintf("%d", i))
				j.Accept(0, stream.Item{Tree: tree}, sink)
			}
			probes := 50
			for i := 0; i < probes; i++ {
				tree := xmltree.Elem("r")
				tree.SetAttr("k", fmt.Sprintf("%d", i*7%size))
				j.Accept(1, stream.Item{Tree: tree}, sink)
			}
			return j.Probes() / uint64(probes)
		}
		ip, sp := mkJoin(true), mkJoin(false)
		probesTable.AddRow(size, ip, sp)
		if ip >= sp {
			holds = false
		}
	}
	res.Tables = append(res.Tables, probesTable)
	res.Holds = holds
	return res, nil
}

// runC9 regenerates "One can efficiently discover streams of interest
// even when millions of streams have been declared by tens of thousands
// of peers": lookup hops grow logarithmically with peers and are
// insensitive to the number of declared streams.
func runC9(s Scale) (*Result, error) {
	res := &Result{
		ID:    "C9",
		Claim: `"One can efficiently discover streams of interest even when millions of streams have been declared by tens of thousands of peers" (§5)`,
	}
	type point struct{ peers, streams int }
	points := []point{{100, 1000}, {1000, 10000}, {5000, 100000}}
	if s == Quick {
		points = []point{{50, 500}, {200, 2000}}
	}
	table := NewTable("discovery cost vs scale",
		"peers", "streams", "avg hops", "log2(peers)")
	holds := true
	for _, pt := range points {
		ring := dht.New()
		for i := 0; i < pt.peers; i++ {
			if err := ring.Join(fmt.Sprintf("peer-%d", i)); err != nil {
				return nil, err
			}
		}
		db := kadop.New(ring)
		for i := 0; i < pt.streams; i++ {
			def := &kadop.StreamDef{
				Ref:       stream.Ref{PeerID: fmt.Sprintf("peer-%d", i%pt.peers), StreamID: fmt.Sprintf("s%d", i)},
				Operator:  "inCOM",
				Signature: fmt.Sprintf("inCOM(peer-%d)#%d", i%pt.peers, i),
			}
			if err := db.Publish(def); err != nil {
				return nil, err
			}
		}
		lookups := 200
		totalHops := 0
		for i := 0; i < lookups; i++ {
			defs, hops, err := db.FindAlerters(fmt.Sprintf("peer-%d", i%pt.peers), fmt.Sprintf("peer-%d", (i*13)%pt.peers), "inCOM")
			if err != nil {
				return nil, err
			}
			if len(defs) == 0 {
				return nil, fmt.Errorf("C9: lost descriptor")
			}
			totalHops += hops
		}
		avgHops := float64(totalHops) / float64(lookups)
		logPeers := log2(float64(pt.peers))
		table.AddRow(pt.peers, pt.streams, avgHops, logPeers)
		if avgHops > 3*logPeers {
			holds = false
		}
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes, "scaled to laptop memory (paper: millions of streams / tens of thousands of peers); hops ~ O(log peers) is the transferable shape")
	res.Holds = holds
	return res, nil
}

func log2(x float64) float64 {
	n := 0.0
	for x > 1 {
		x /= 2
		n++
	}
	return n
}

// runC10 regenerates the future-work GC claim: a time-window bound on the
// join history caps memory while preserving the matches inside the
// window.
func runC10(s Scale) (*Result, error) {
	res := &Result{
		ID:    "C10",
		Claim: `"defining and implementing an efficient garbage collection mechanism for reducing the storage needed for our stateful stream processors" (§7, future work; window approach after STREAM [13])`,
	}
	n := 20000
	if s == Quick {
		n = 3000
	}
	table := NewTable("join history under a 60s window vs unbounded",
		"items", "peak history (gc)", "peak history (unbounded)", "evicted", "matches gc", "matches unbounded")
	run := func(window time.Duration) (*operators.Join, int) {
		j := &operators.Join{
			LeftKey:  operators.AttrKey("k"),
			RightKey: operators.AttrKey("k"),
			UseIndex: true,
			Window:   window,
		}
		matches := 0
		sink := func(stream.Item) { matches++ }
		for i := 0; i < n; i++ {
			t := time.Duration(i) * time.Second
			l := xmltree.Elem("l")
			l.SetAttr("k", fmt.Sprintf("%d", i))
			j.Accept(0, stream.Item{Tree: l, Time: t}, sink)
			// Partner arrives 30s later: inside the window.
			if i >= 30 {
				r := xmltree.Elem("r")
				r.SetAttr("k", fmt.Sprintf("%d", i-30))
				j.Accept(1, stream.Item{Tree: r, Time: t}, sink)
			}
		}
		return j, matches
	}
	gc, gcMatches := run(60 * time.Second)
	unbounded, ubMatches := run(0)
	table.AddRow(n, gc.PeakHistorySize(), unbounded.PeakHistorySize(), gc.Evicted(), gcMatches, ubMatches)
	res.Tables = append(res.Tables, table)
	res.Holds = gc.PeakHistorySize() < unbounded.PeakHistorySize()/10 && gcMatches == ubMatches
	res.Notes = append(res.Notes, "all partners arrive within the window, so GC loses no matches while memory stays O(window)")
	return res, nil
}

// runC11 runs the two motivating workloads end to end and reports
// monitoring completeness and cost.
func runC11(s Scale) (*Result, error) {
	res := &Result{
		ID:    "C11",
		Claim: `motivations (§1): telecom workflow surveillance and Edos usage statistics`,
	}
	table := NewTable("workload summary",
		"workload", "events driven", "alerts observed", "net msgs", "net bytes")
	holds := true

	// Telecom.
	{
		sys := peer.MustSystem(peer.DefaultConfig())
		cfg := workload.DefaultTelecom()
		if s == Quick {
			cfg.Workflows = 10
		}
		if err := workload.SetupTelecom(sys, cfg); err != nil {
			return nil, err
		}
		mgr := sys.MustAddPeer("noc")
		task, err := mgr.Subscribe(`for $c in outCOM(<p>orchestrator</p>)
return <call wf="{$c.callId}" m="{$c.callMethod}"/> by publish as channel "allCalls"`)
		if err != nil {
			return nil, err
		}
		calls, err := workload.RunTelecom(sys, cfg)
		if err != nil {
			return nil, err
		}
		task.Stop()
		alerts := len(task.Results().Drain())
		tot := sys.Net.Totals()
		table.AddRow("telecom", calls, alerts, tot.Messages, tot.Bytes)
		if alerts != calls {
			holds = false
		}
	}
	// Edos.
	{
		sys := peer.MustSystem(peer.DefaultConfig())
		cfg := workload.DefaultEdos()
		if s == Quick {
			cfg.Downloads, cfg.Queries = 40, 20
		}
		e, err := workload.SetupEdos(sys, cfg)
		if err != nil {
			return nil, err
		}
		mgr := sys.MustAddPeer("noc")
		task, err := mgr.Subscribe(e.StatsSubscription("GetPackage"))
		if err != nil {
			return nil, err
		}
		dl, q, err := e.Run()
		if err != nil {
			return nil, err
		}
		task.Stop()
		alerts := len(task.Results().Drain())
		tot := sys.Net.Totals()
		table.AddRow("edos", dl+q, alerts, tot.Messages, tot.Bytes)
		if alerts != dl {
			holds = false
		}
	}
	res.Tables = append(res.Tables, table)
	res.Holds = holds
	return res, nil
}
