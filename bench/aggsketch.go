package main

import (
	"sync"
	"time"

	"p2pm/bench/gen"
	"p2pm/internal/aggtree"
	"p2pm/internal/algebra"
	"p2pm/internal/monoid"
	"p2pm/internal/peer"
	"p2pm/internal/telemetry"
)

// agg-sketch: 16 sources, 4 caller peers, 6 workers, degree-3 trees;
// four concurrent group subscriptions over the same sources — count,
// avg, distinct (HyperLogLog) and freq (Count-Min) of callMethod keyed
// on caller, 60 s virtual windows, a 512-value universe so leaf states
// exceed the freq monoid's 32-candidate cap. No per-item subscriber:
// drive, Stop, drain. 64 calls per Step.

const (
	aggSources   = 16
	aggCallers   = 4
	aggWorkers   = 6
	aggUniverse  = 512
	aggSkew      = 1.2 // Zipf exponent of the value stream: heavy hitters for freq
	aggWindow    = 60 * time.Second
	aggCallsStep = 64
	aggSlice     = 4096 // calls per throughput slice
	aggSetupReps = 100
)

var aggFns = []string{"count", "avg", "distinct", "freq"}

// lookupAgg resolves an aggregate for an operator: nil means count.
func lookupAgg(fn string) monoid.Monoid {
	if fn == "" || fn == "count" {
		return nil
	}
	m, _ := monoid.Lookup(fn)
	return m
}

func aggSpec(fn string) *algebra.GroupSpec {
	spec := &algebra.GroupSpec{KeyAttr: "caller", Window: aggWindow.String()}
	if fn != "count" {
		spec.Fn, spec.ValueAttr = fn, "callMethod"
	}
	return spec
}

func newAggWorld(cfg *config, reg *telemetry.Registry, methods []string) (*world, []*peer.Task, error) {
	w, err := newWorld(simConfig(cfg, reg), aggSources, aggCallers, aggWorkers, methods)
	if err != nil {
		return nil, nil, err
	}
	var tasks []*peer.Task
	for _, fn := range aggFns {
		t, err := w.mgr.DeployPlan(groupPlan(w.sources, aggSpec(fn), "mgr", "agg-"+fn))
		if err != nil {
			return nil, nil, err
		}
		tasks = append(tasks, t)
	}
	return w, tasks, nil
}

func runAgg(cfg *config) (*run, error) {
	res := newRun()
	methods := gen.NumericMethods(aggUniverse)

	var w *world
	var tasks []*peer.Task
	err := timeSetups(cfg, res, aggSetupReps, func() { stopAll(tasks) }, func(reg *telemetry.Registry) (err error) {
		w, tasks, err = newAggWorld(cfg, reg, methods)
		return err
	})
	if err != nil {
		return nil, err
	}

	tr := cfg.Trace
	calls := gen.NewCalls(cfg.Seed, aggSources, aggCallers, methods, aggSkew)
	tl := tally{window: aggWindow, events: make([]tallyEvent, 0, int(cfg.Seconds*60000)+1024)}
	lat := make([]int64, 0, cap(tl.events))
	callerKeys := make([]string, aggCallers)
	for i := range callerKeys {
		callerKeys[i] = "http://c" + string(rune('0'+i))
	}
	var stepNS []int64
	// folded counts the alerts the trees' leaves have consumed (leaves sit
	// on the source peers): folding is asynchronous, so throughput is the
	// rate at which this counter moves, not the rate of Invoke.
	folded := func() float64 {
		var n uint64
		for _, t := range tasks {
			for p, v := range t.IngestByPeer() {
				if p[0] == 's' {
					n += v
				}
			}
		}
		return float64(n)
	}

	m0, net0, t0 := cfg.Speed.markMem(), w.sys.Net.Totals(), time.Now()
	meter := newRateMeter(cfg.Speed, folded)
	for time.Since(t0) < cfg.phase(1) {
		c := calls.Next()
		sp := tr.begin("soap.Invoke", noSpan, int64(w.calls+1))
		c0 := time.Now()
		at, err := w.invoke(c)
		lat = append(lat, int64(time.Since(c0)))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		tl.add(at, callerKeys[c.Caller], c.Method)
		if w.calls%aggCallsStep == 0 {
			sp := tr.begin("peer.Step", noSpan, -1)
			s0 := time.Now()
			w.sys.Step(time.Second)
			if tr != nil {
				stepNS = append(stepNS, int64(time.Since(s0)))
			}
			tr.end(sp)
		}
		if w.calls%aggSlice == 0 {
			meter.mark()
		}
	}
	// Stop flushes every tree; its allocations and traffic belong to the
	// items driven.
	sp := tr.begin("peer.Task.Stop", noSpan, -1)
	stopAll(tasks)
	tr.end(sp)
	allocs, bytes := cfg.Speed.markMem().since(m0)
	rel := cfg.Speed.take()
	net1 := w.sys.Net.Totals()

	// One item is one alert folded: every call raises one alert per
	// subscription.
	items := float64(w.calls * len(aggFns))
	rate, _ := meter.rate()
	res.setRate(rate, rel, int(items))
	res.setLatency(lat, rel)
	res.set("allocs_per_item", allocs/items, int(items))
	res.set("alloc_bytes_per_item", bytes/items, int(items))
	res.set("net_bytes_per_item", float64(net1.Bytes-net0.Bytes)/items, int(items))

	// Oracle: each emitted record equals the flat replay of the drive
	// schedule through the same monoid. The four replays are independent.
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for i, fn := range aggFns {
		recs := tasks[i].Results().Drain()
		wg.Add(1)
		go func(fn string) {
			defer wg.Done()
			local := newRun()
			tl.check(fn, recs, local)
			mu.Lock()
			res.merge(local)
			mu.Unlock()
		}(fn)
	}
	wg.Wait()

	if tr != nil {
		var in, out uint64
		for _, t := range tasks {
			in += t.ItemsProcessed()
			out += t.Results().Pushed()
		}
		res.set("operators.items_in", float64(in)/items, int(items))
		res.set("operators.items_out", float64(out)/items, int(items))
		res.set("aggtree.interiors", float64(len(aggtree.Interiors(tasks[0].Plan))), 1)
		res.set("aggtree.ingest_max_over_mean", ingestMaxOverMean(tasks[3]), 1)
		res.set("simnet.msgs_per_item", float64(net1.Messages-net0.Messages)/items, int(items))
		res.set("simnet.bytes_per_item", float64(net1.Bytes-net0.Bytes)/items, int(items))
		res.set("simnet.dropped", float64(net1.Dropped-net0.Dropped), int(items))
		res.set("stream.queue_high_water", float64(tasks[0].Results().HighWater()), 1)
		res.set("peer.step_us", percentile(stepNS, 0.5)/1e3, len(stepNS))
	}
	return res, nil
}

// replayAgg times the layers under agg-sketch on its own inputs: the
// four monoids, the partial/merge operators, and the layers it shares
// with pipeline-sim (soap hook, alerter, channel, link).
func replayAgg(cfg *config, out *run) error {
	methods := gen.NumericMethods(aggUniverse)
	calls := gen.NewCalls(cfg.Seed, aggSources, aggCallers, methods, aggSkew)
	vals := make([]string, 4096)
	for i := range vals {
		vals[i] = calls.Next().Method
	}
	val := func(i int) string { return vals[i%len(vals)] }

	for _, fn := range aggFns {
		m, _ := monoid.Lookup(fn)
		// A fresh state per 1 000 values, the size one (window, caller)
		// group reaches at a leaf.
		st := m.Zero()
		setTime(cfg, out, "monoid.absorb_ns."+fn, 1, func(i int) {
			if i%1000 == 0 {
				st = m.Zero()
			}
			st.Absorb(val(i)) //nolint:errcheck // numeric by construction
		})
	}
	for _, fn := range []string{"distinct", "freq"} {
		m, _ := monoid.Lookup(fn)
		part, acc := m.Zero(), m.Zero()
		for i := 0; i < 1000; i++ {
			part.Absorb(val(i))       //nolint:errcheck // numeric by construction
			acc.Absorb(val(i + 1000)) //nolint:errcheck // numeric by construction
		}
		enc := part.Encode()
		out.set("monoid.state_bytes."+fn, float64(len(enc)), 1)
		setTime(cfg, out, "monoid.encode_us."+fn, 1e3, func(int) { part.Encode() })
		setTime(cfg, out, "monoid.decode_us."+fn, 1e3, func(int) { m.Decode(enc) }) //nolint:errcheck // encoded above
		dec, err := m.Decode(enc)
		if err != nil {
			return err
		}
		setTime(cfg, out, "monoid.merge_us."+fn, 1e3, func(int) { acc.Merge(dec) }) //nolint:errcheck // same monoid
	}

	replaySoapAlerter(cfg, out, aggSources, methods)
	alerts := replayAlerts(cfg.Seed, aggSources, aggCallers, methods, 2048)
	replayStream(cfg, out, alerts)
	replayGroupOps(cfg, out, alerts, "freq", "caller", "callMethod", aggWindow)
	replayAggtree(cfg, out, aggSources, aggSpec("freq"))
	return nil
}
