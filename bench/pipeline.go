package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"p2pm/bench/gen"
	"p2pm/internal/aggtree"
	"p2pm/internal/alerters"
	"p2pm/internal/algebra"
	"p2pm/internal/operators"
	"p2pm/internal/p2pml"
	"p2pm/internal/peer"
	"p2pm/internal/simnet"
	"p2pm/internal/soap"
	"p2pm/internal/stream"
	"p2pm/internal/telemetry"
	"p2pm/internal/xmltree"
)

// pipeline-sim: the canonical data path of the real runtime on simnet.
// 8 sources + 3 workers + manager, Agg.Degree 3; one P2PML
// select+restructure subscription returning <hit id="{$e.callId}"/> per
// call, plus one windowed group-by-count deployed as a tree. Driven by
// Endpoint.Invoke round-robin with one Step(1s) per 16 calls.
// Phase A: 1 call in flight (latency). Phase B: 64 in flight
// (throughput), one sender and one collector goroutine.

const (
	pipeSources    = 8
	pipeWorkers    = 3
	pipeInFlight   = 64
	pipeCallsStep  = 16
	pipeSlice      = 4096 // calls per throughput slice
	pipeWindow     = 10 * time.Second
	pipeMethod     = "Q"
	pipeHitsSub    = `for $e in %s where $e.callMethod = "Q" return <hit id="{$e.callId}"/> by publish as channel "hits"`
	pipeShareA     = 0.4 // of the measuring time; phase B gets the rest
	pipeSetupReps  = 100
	pipeWarmupCall = 64
)

// pipeline is one deployed pipeline-sim system.
type pipeline struct {
	*world
	hits, agg *peer.Task
	calls     *gen.Calls
	tally     tally
	stepNS    []int64 // wall time of each Step, traced runs only
	tr        *tracer
}

func newPipeline(cfg *config, reg *telemetry.Registry) (*pipeline, error) {
	w, err := newWorld(simConfig(cfg, reg), pipeSources, 1, pipeWorkers, []string{pipeMethod})
	if err != nil {
		return nil, err
	}
	p := &pipeline{world: w, tally: tally{window: pipeWindow}, tr: cfg.Trace,
		calls: gen.NewCalls(cfg.Seed, pipeSources, 1, []string{pipeMethod}, 0)}
	if p.hits, err = w.mgr.Subscribe(fmt.Sprintf(pipeHitsSub, inCOM(w.sources))); err != nil {
		return nil, err
	}
	spec := &algebra.GroupSpec{KeyAttr: "callee", Window: pipeWindow.String()}
	if p.agg, err = w.mgr.DeployPlan(groupPlan(w.sources, spec, "mgr", "rates")); err != nil {
		return nil, err
	}
	// Warm-up: one call through every source and on to the subscriber.
	for i := 0; i < pipeWarmupCall; i++ {
		if _, err := p.call(noSpan); err != nil {
			return nil, err
		}
		if _, ok := p.hits.Results().Pop(); !ok {
			return nil, fmt.Errorf("result queue closed during warm-up")
		}
	}
	return p, nil
}

func (p *pipeline) stop() { stopAll([]*peer.Task{p.hits, p.agg}) }

// call issues the next call of the schedule and, every 16th, advances
// virtual time. It returns the call's number (its callId).
func (p *pipeline) call(parent int32) (int, error) {
	c := p.calls.Next()
	sp := p.tr.begin("soap.Invoke", parent, int64(p.world.calls+1))
	at, err := p.invoke(c)
	p.tr.end(sp)
	if err != nil {
		return 0, err
	}
	p.tally.add(at, "http://"+p.sources[c.Source], "")
	if p.world.calls%pipeCallsStep == 0 {
		sp := p.tr.begin("peer.Step", noSpan, -1)
		t0 := time.Now()
		p.sys.Step(time.Second)
		if p.tr != nil {
			p.stepNS = append(p.stepNS, int64(time.Since(t0)))
		}
		p.tr.end(sp)
	}
	return p.world.calls, nil
}

// hitID parses the call number out of <hit id="call-N"/>.
func hitID(it stream.Item) int {
	n, err := strconv.Atoi(strings.TrimPrefix(it.Tree.AttrOr("id", ""), "call-"))
	if err != nil {
		return -1
	}
	return n
}

func runPipeline(cfg *config) (*run, error) {
	res := newRun()

	var p *pipeline
	err := timeSetups(cfg, res, pipeSetupReps, func() { p.stop() }, func(reg *telemetry.Registry) (err error) {
		p, err = newPipeline(cfg, reg)
		return err
	})
	if err != nil {
		return nil, err
	}
	tr, results := cfg.Trace, p.hits.Results()
	first := p.world.calls + 1 // first call of the measured phases
	seen := make([]uint8, 0, 1<<20)
	mark := func(id int) {
		for id-first >= len(seen) {
			seen = append(seen, 0)
		}
		if id >= first {
			seen[id-first]++
		}
	}

	// Phase A: one call in flight, Invoke -> Results().Pop.
	lat := make([]int64, 0, int(cfg.Seconds*40000))
	for start := time.Now(); time.Since(start) < cfg.phase(pipeShareA); {
		root := tr.begin("item", noSpan, int64(p.world.calls+1))
		t0 := time.Now()
		if _, err := p.call(root); err != nil {
			return nil, err
		}
		sp := tr.begin("stream.Pop", root, int64(p.world.calls))
		it, ok := results.Pop()
		tr.end(sp)
		lat = append(lat, int64(time.Since(t0)))
		tr.end(root)
		if !ok || it.EOS() {
			return nil, fmt.Errorf("result queue closed in phase A")
		}
		mark(hitID(it))
		if len(lat)%speedEvery == 0 {
			cfg.Speed.sample()
		}
	}
	p50 := res.setLatency(lat, cfg.Speed.take())
	if tr != nil && p50 > 0 {
		res.set("driver.path_sum_frac", (tr.selfMedian("soap.Invoke")+tr.selfMedian("stream.Pop"))/p50, len(lat))
	}

	// Phase B: 64 calls in flight; the sender invokes, the collector pops.
	sem := make(chan struct{}, pipeInFlight) // one slot per call in flight
	var collector sync.WaitGroup
	collector.Add(1)
	go func() {
		defer collector.Done()
		for {
			sp := tr.begin("stream.Pop", noSpan, -1)
			it, ok := results.Pop()
			tr.end(sp)
			if !ok || it.EOS() {
				return // the task was stopped: every hit is in
			}
			id := hitID(it)
			tr.setItem(sp, int64(id))
			mark(id)
			<-sem
		}
	}()
	m0, net0, t0 := cfg.Speed.markMem(), p.sys.Net.Totals(), time.Now()
	sentB := 0
	meter := newRateMeter(cfg.Speed, func() float64 { return float64(sentB) })
	for time.Since(t0) < cfg.phase(1-pipeShareA) {
		sem <- struct{}{}
		if _, err := p.call(noSpan); err != nil {
			return nil, err
		}
		if sentB++; sentB%pipeSlice == 0 {
			meter.mark() // at most 64 of them are still in flight
		}
	}
	for i := 0; i < pipeInFlight; i++ { // every slot free again: every hit was delivered
		sem <- struct{}{}
	}
	rate, _ := meter.rate()
	allocs, bytes := cfg.Speed.markMem().since(m0)
	net1 := p.sys.Net.Totals()
	items := float64(sentB)
	res.setRate(rate, cfg.Speed.take(), sentB)
	res.set("allocs_per_item", allocs/items, sentB)
	res.set("alloc_bytes_per_item", bytes/items, sentB)
	res.set("net_bytes_per_item", float64(net1.Bytes-net0.Bytes)/items, sentB)

	last := p.world.calls
	p.stop()
	collector.Wait()

	// Oracle: every callId arrives exactly once, and the group records
	// equal the driver's own per-window tally.
	driven := last - first + 1
	res.Attempted += int64(driven)
	for i := 0; i < driven; i++ {
		if i >= len(seen) || seen[i] != 1 {
			n := 0
			if i < len(seen) {
				n = int(seen[i])
			}
			res.fail(1, "call-%d delivered %d times", first+i, n)
		}
	}
	p.tally.check("count", p.agg.Results().Drain(), res)

	if tr != nil {
		calls := float64(p.world.calls)
		res.set("stream.queue_high_water", float64(results.HighWater()), 1)
		res.set("operators.items_in", float64(p.hits.ItemsProcessed()+p.agg.ItemsProcessed())/calls, p.world.calls)
		res.set("operators.items_out", float64(results.Pushed()+p.agg.Results().Pushed())/calls, p.world.calls)
		res.set("aggtree.interiors", float64(len(aggtree.Interiors(p.agg.Plan))), 1)
		res.set("aggtree.ingest_max_over_mean", ingestMaxOverMean(p.agg), 1)
		res.set("simnet.msgs_per_item", float64(net1.Messages-net0.Messages)/items, sentB)
		res.set("simnet.bytes_per_item", float64(net1.Bytes-net0.Bytes)/items, sentB)
		res.set("simnet.dropped", float64(net1.Dropped-net0.Dropped), sentB)
		res.set("peer.step_us", percentile(p.stepNS, 0.5)/1e3, len(p.stepNS))
	}
	return res, nil
}

// replayPipeline times the layers on pipeline-sim's blocking path on its
// own inputs, and measures what wiring a telemetry.Registry costs.
func replayPipeline(cfg *config, out *run) error {
	// telemetry.overhead_frac: the same size with a Registry wired but no
	// spans, against the untraced pass.
	reg := telemetry.NewRegistry()
	wired := *cfg
	wired.Trace, wired.Registry = nil, reg
	r, err := runPipeline(&wired)
	if err != nil {
		return err
	}
	if cfg.Baseline > 0 {
		out.set("telemetry.overhead_frac", 1-r.Values["items_per_s"]/cfg.Baseline, 1)
	}
	c := reg.Counter("bench_events_total", telemetry.L("peer", "driver"))
	setTime(cfg, out, "telemetry.counter_ns", 1, func(int) { c.Inc() })
	setTime(cfg, out, "telemetry.snapshot_us", 1e3, func(int) { reg.Snapshot() })

	replaySoapAlerter(cfg, out, pipeSources, []string{pipeMethod})
	alerts := replayAlerts(cfg.Seed, pipeSources, 1, []string{pipeMethod}, 256)
	replayStream(cfg, out, alerts)

	// select and restructure as the subscription compiles them.
	sub, err := p2pml.Parse(fmt.Sprintf(pipeHitsSub, inCOM([]string{"s0"})))
	if err != nil {
		return err
	}
	plan, err := algebra.Compile(sub)
	if err != nil {
		return err
	}
	plan = algebra.Optimize(plan, algebra.DefaultOptions("mgr"))
	sink := func(stream.Item) {}
	var sel *operators.Select
	var rst *operators.Restructure
	plan.Walk(func(n *algebra.Node) {
		switch n.Op {
		case algebra.OpSelect:
			sel = &operators.Select{Pred: algebra.SelectPred(n.Inputs[0].Schema, n.Select)}
		case algebra.OpRestruct:
			rst = &operators.Restructure{Apply: algebra.RestructApply(n.Inputs[0].Schema, n.Restruct)}
		}
	})
	if sel == nil || rst == nil {
		return fmt.Errorf("compiled plan has no select/restructure:\n%s", plan.Tree())
	}
	item := func(i int) stream.Item { return alerts[i%len(alerts)] }
	setTime(cfg, out, "operators.select_ns", 1, func(i int) { sel.Accept(0, item(i), sink) })
	setTime(cfg, out, "operators.restructure_ns", 1, func(i int) { rst.Accept(0, item(i), sink) })
	out.set("operators.restructure_allocs", allocsOp(512, func(i int) { rst.Accept(0, item(i), sink) }), 512)
	replayGroupOps(cfg, out, alerts, "count", "callee", "", pipeWindow)
	replayAggtree(cfg, out, pipeSources, &algebra.GroupSpec{KeyAttr: "callee", Window: pipeWindow.String()})
	setTime(cfg, out, "xmltree.serialize_us", 1e3, func(i int) { _ = item(i).Tree.String() })
	return nil
}

// --- layer replays shared by the sim workloads ---

// replayAlerts produces n ws-in alerts exactly as the runtime's alerter
// would for the workload's call schedule: a soap fabric with an inCOM
// alerter hooked on every source, emitting into a slice.
func replayAlerts(seed int64, sources, callers int, methods []string, n int) []stream.Item {
	nw := simnet.New(simnet.DefaultOptions())
	fabric := soap.NewFabric(nw)
	var out []stream.Item
	for i := 0; i < sources; i++ {
		ep := fabric.Endpoint("s" + strconv.Itoa(i))
		for _, m := range methods {
			ep.Register(m, echo, nil)
		}
		ws := alerters.NewWS("in@"+ep.Peer(), alerters.Inbound, true, nw.Clock().Now, func(it stream.Item) { out = append(out, it) })
		ep.OnInbound(ws.Hook())
	}
	calls := gen.NewCalls(seed, sources, callers, methods, 1.2)
	for len(out) < n {
		c := calls.Next()
		fabric.Endpoint("c"+strconv.Itoa(c.Caller)).Invoke("s"+strconv.Itoa(c.Source), c.Method, c.Params) //nolint:errcheck // registered above
		if len(out)%64 == 0 {
			nw.Clock().Advance(time.Second)
		}
	}
	return out
}

// replaySoapAlerter times Endpoint.Invoke with no hook attached, then
// the ws-in alerter's hook alone on recorded exchanges.
func replaySoapAlerter(cfg *config, out *run, sources int, methods []string) {
	nw := simnet.New(simnet.DefaultOptions())
	fabric := soap.NewFabric(nw)
	var exchanges []soap.Exchange
	for i := 0; i < sources; i++ {
		ep := fabric.Endpoint("s" + strconv.Itoa(i))
		for _, m := range methods {
			ep.Register(m, echo, nil)
		}
	}
	client := fabric.Endpoint("c0")
	calls := gen.NewCalls(cfg.Seed, sources, 1, methods, 1.2)
	setTime(cfg, out, "soap.invoke_us", 1e3, func(int) {
		c := calls.Next()
		client.Invoke("s"+strconv.Itoa(c.Source), c.Method, c.Params) //nolint:errcheck // registered above
	})
	fabric.Endpoint("s0").OnInbound(func(x soap.Exchange) { exchanges = append(exchanges, x) })
	for len(exchanges) < 256 {
		c := calls.Next()
		client.Invoke("s0", c.Method, c.Params) //nolint:errcheck // registered above
	}
	ws := alerters.NewWS("in@s0", alerters.Inbound, true, nw.Clock().Now, func(stream.Item) {})
	hook := ws.Hook()
	setTime(cfg, out, "alerters.ws_alert_us", 1e3, func(i int) { hook(exchanges[i%len(exchanges)]) })
	out.set("alerters.ws_alert_allocs", allocsOp(512, func(i int) { hook(exchanges[i%len(exchanges)]) }), 512)
}

// replayStream times the channel, the queue and the simulated link on
// recorded alerts.
func replayStream(cfg *config, out *run, alerts []stream.Item) {
	item := func(i int) stream.Item { return alerts[i%len(alerts)] }
	ch := stream.NewChannel("s0", "replay")
	sub := ch.Subscribe("mgr", nil)
	setTime(cfg, out, "stream.publish_ns", 1, func(i int) {
		ch.Publish(item(i))
		sub.Queue.TryPop()
	})
	sub.Unsubscribe()
	q := stream.NewQueue()
	setTime(cfg, out, "stream.queue_push_pop_ns", 1, func(i int) {
		q.Push(item(i))
		q.Pop()
	})
	nw := simnet.New(simnet.DefaultOptions())
	nw.AddNode("s0")
	nw.AddNode("mgr")
	setTime(cfg, out, "simnet.deliver_ns", 1, func(i int) { nw.Deliver("s0", "mgr", item(i)) })
}

// replayGroupOps times the aggregation operators on recorded alerts: the
// flat Group fold, the PartialAgg leaf fold, and the MergeAgg interior
// on the partials that leaf emitted.
func replayGroupOps(cfg *config, out *run, alerts []stream.Item, fn, keyAttr, valueAttr string, window time.Duration) {
	agg := lookupAgg(fn)
	key := func(n *xmltree.Node) string { return n.AttrOr(keyAttr, "") }
	var value func(*xmltree.Node) string
	if valueAttr != "" {
		value = func(n *xmltree.Node) string { return n.AttrOr(valueAttr, "") }
	}
	sink := func(stream.Item) {}
	// Advancing time: pass k over the recorded alerts lands k windows on.
	at := func(i int) stream.Item {
		it := alerts[i%len(alerts)]
		it.Time += time.Duration(i/len(alerts)) * window
		return it
	}
	g := &operators.Group{Key: key, Value: value, Window: window, Agg: agg, EagerEmit: true}
	setTime(cfg, out, "operators.group_accept_ns", 1, func(i int) { g.Accept(0, at(i), sink) })
	var partials []stream.Item
	leaf := &operators.PartialAgg{Key: key, Value: value, Window: window, Agg: agg}
	collect := func(it stream.Item) {
		if len(partials) < 256 {
			partials = append(partials, it)
		}
	}
	setTime(cfg, out, "operators.partial_accept_ns", 1, func(i int) { leaf.Accept(0, at(i), collect) })
	leaf2 := &operators.PartialAgg{Key: key, Value: value, Window: window, Agg: agg}
	out.set("operators.partial_accept_allocs", allocsOp(2048, func(i int) { leaf2.Accept(0, at(i), sink) }), 2048)
	leaf.Flush(collect)
	if len(partials) > 0 {
		merge := &operators.MergeAgg{Agg: agg}
		setTime(cfg, out, "operators.merge_accept_ns", 1, func(i int) { merge.Accept(0, partials[i%len(partials)], sink) })
	}
}

// replayAggtree times the tree rewrite of a group plan over n sources.
func replayAggtree(cfg *config, out *run, n int, spec *algebra.GroupSpec) {
	sources := make([]string, n)
	for i := range sources {
		sources[i] = "s" + strconv.Itoa(i)
	}
	place := func(key string) string { return "w" + strconv.Itoa(len(key)%3+1) }
	setTime(cfg, out, "aggtree.rewrite_us", 1e3, func(i int) {
		aggtree.Rewrite(groupPlan(sources, spec, "mgr", "replay"), "task-"+strconv.Itoa(i), aggtree.Config{Degree: 3, Place: place})
	})
}
