package main

import (
	"math"
	"strconv"
	"time"

	"p2pm/bench/gen"
	"p2pm/internal/algebra"
	"p2pm/internal/monoid"
	"p2pm/internal/peer"
	"p2pm/internal/soap"
	"p2pm/internal/stream"
	"p2pm/internal/telemetry"
	"p2pm/internal/xmltree"
)

// world is a peer.System on simnet populated with the pools the three
// sim workloads share: monitored sources s0…, caller peers c0…, a worker
// pool w0… that hosts aggregation interiors, and a manager.
type world struct {
	sys     *peer.System
	mgr     *peer.Peer
	sources []string
	callers []*soap.Endpoint
	workers []string
	calls   int // Invokes made so far: the fabric numbers them call-1, call-2, …
}

// simConfig is the runtime configuration every sim workload starts
// from: the defaults (telemetry off unless the traced run hands in its
// registry), the run's seed, and degree-3 aggregation trees.
func simConfig(cfg *config, reg *telemetry.Registry) peer.Config {
	pc := peer.DefaultConfig()
	pc.Seed = cfg.Seed
	pc.Agg.Degree = 3
	pc.Telemetry.Registry = reg
	return pc
}

func echo(*xmltree.Node) (*xmltree.Node, error) { return xmltree.Elem("ok"), nil }

// newWorld builds the system. Every source serves every method of the
// universe; sources, callers and the manager are load-biased so failover
// and interior placement stay on the worker pool, and w0 (the host of
// tree roots) is kept free of DHT-routed interiors.
func newWorld(pc peer.Config, sources, callers, workers int, methods []string) (*world, error) {
	sys, err := peer.NewSystem(pc)
	if err != nil {
		return nil, err
	}
	w := &world{sys: sys}
	add := func(name string, busy bool) (*peer.Peer, error) {
		p, err := sys.AddPeer(name)
		if err == nil && busy {
			sys.Net.AddLoad(name, 1000)
		}
		return p, err
	}
	if w.mgr, err = add("mgr", true); err != nil {
		return nil, err
	}
	for i := 0; i < sources; i++ {
		name := "s" + strconv.Itoa(i)
		p, err := add(name, true)
		if err != nil {
			return nil, err
		}
		for _, m := range methods {
			p.Endpoint().Register(m, echo, nil)
		}
		w.sources = append(w.sources, name)
	}
	for i := 0; i < callers; i++ {
		p, err := add("c"+strconv.Itoa(i), true)
		if err != nil {
			return nil, err
		}
		w.callers = append(w.callers, p.Endpoint())
	}
	for i := 0; i < workers; i++ {
		name := "w" + strconv.Itoa(i)
		if _, err := add(name, false); err != nil {
			return nil, err
		}
		w.workers = append(w.workers, name)
	}
	sys.SetAggHosts(func(name string) bool { return name[0] == 'w' && (workers == 1 || name != "w0") })
	return w, nil
}

// invoke issues one monitored call and returns the virtual time it was
// stamped with (the alert's timestamp: the clock only moves in Step).
func (w *world) invoke(c gen.Call) (time.Duration, error) {
	now := w.sys.Net.Clock().Now()
	w.calls++
	_, err := w.callers[c.Caller].Invoke(w.sources[c.Source], c.Method, c.Params)
	return now, err
}

// groupPlan builds the windowed group-by over the union of the given
// sources' inCOM alerters, published at manager mgr — the programmatic
// form (DeployPlan) of a P2PML group subscription.
func groupPlan(sources []string, spec *algebra.GroupSpec, mgr, channel string) *algebra.Node {
	var branches []*algebra.Node
	for _, s := range sources {
		branches = append(branches, algebra.NewAlerter("inCOM", "ws-in", s, "e", nil))
	}
	union := &algebra.Node{Op: algebra.OpUnion, Peer: "w0", Inputs: branches, Schema: []string{"e"}}
	group := &algebra.Node{Op: algebra.OpGroup, Peer: "w0", Inputs: []*algebra.Node{union}, Schema: []string{"e"}, Group: spec}
	return &algebra.Node{Op: algebra.OpPublish, Peer: mgr, Inputs: []*algebra.Node{group}, Schema: []string{"e"},
		Publish: &algebra.PublishSpec{ChannelID: channel}}
}

// inCOM renders the FOR source of a P2PML subscription over sources.
func inCOM(sources []string) string {
	s := "inCOM("
	for _, name := range sources {
		s += "<p>" + name + "</p>"
	}
	return s + ")"
}

// tally is the driver's own record of what it drove into a windowed
// group-by: one entry per event. Replaying it through the deployed
// monoid yields, per (window, key), the exact record a lossless run
// emits — flat, single-threaded, independent of tree shape and merge
// order.
type tally struct {
	window time.Duration
	events []tallyEvent
}

type tallyEvent struct {
	window int32
	key    string // group key as the alert spells it (an endpoint URL)
	val    string // aggregated value; "" for count
}

func (t *tally) add(at time.Duration, key, val string) {
	t.events = append(t.events, tallyEvent{int32(at / t.window), key, val})
}

// hllTolerance is the relative error allowed between a distinct record
// and the exact count: four standard errors of HyperLogLog at p=12
// (1.04/sqrt(4096) = 1.6 %).
const hllTolerance = 0.065

// check compares the records a task emitted with the flat replay:
// exactly one record per expected (window, key), byte-identical for
// every aggregate except distinct, whose estimate must sit within
// HyperLogLog's stated error of the exact count. One attempted operation
// is one expected (or unexpected) group.
func (t *tally) check(fn string, recs []stream.Item, res *run) {
	m, ok := monoid.Lookup(fn)
	if !ok {
		res.Attempted++
		res.fail(1, "unknown aggregate %s", fn)
		return
	}
	type groupKey struct {
		window int32
		key    string
	}
	states := map[groupKey]monoid.State{}
	exact := map[groupKey]map[string]struct{}{}
	for _, e := range t.events {
		gk := groupKey{e.window, e.key}
		st := states[gk]
		if st == nil {
			st = m.Zero()
			states[gk] = st
			if fn == "distinct" {
				exact[gk] = map[string]struct{}{}
			}
		}
		if st.Absorb(e.val) != nil {
			continue
		}
		if fn == "distinct" {
			exact[gk][e.val] = struct{}{}
		}
	}
	res.Attempted += int64(len(states))
	bad := func(format string, args ...any) {
		res.fail(1, fn+": "+format, args...)
	}
	for _, it := range recs {
		w, err := strconv.ParseInt(it.Tree.AttrOr("window", ""), 10, 32)
		gk := groupKey{int32(w), it.Tree.AttrOr("key", "")}
		st := states[gk]
		if err != nil || st == nil {
			res.Attempted++
			bad("unexpected or duplicated record %s", it.Tree)
			continue
		}
		delete(states, gk)
		if fn == "distinct" {
			est, err := strconv.ParseFloat(it.Tree.AttrOr("distinct", ""), 64)
			truth := float64(len(exact[gk]))
			if err != nil || math.Abs(est-truth) > hllTolerance*truth+1 {
				bad("window %d key %s: distinct %v, exact %v", gk.window, gk.key, est, truth)
			}
			continue
		}
		want := xmltree.Elem("group")
		want.SetAttr("key", gk.key)
		st.Final(func(a, v string) { want.SetAttr(a, v) })
		want.SetAttr("window", strconv.FormatInt(int64(gk.window), 10))
		if got := it.Tree.String(); got != want.String() {
			bad("got %s want %s", got, want)
		}
	}
	for gk := range states {
		bad("window %d key %s: no record", gk.window, gk.key)
	}
}

// stopAll stops tasks in deployment order: a task that reuses another's
// streams gets its provider's flushed records before its own teardown.
func stopAll(tasks []*peer.Task) {
	for _, t := range tasks {
		t.Stop()
	}
}

// ingestMaxOverMean is the hotspot ratio of a task: the busiest hosting
// peer's operator ingest over the mean across hosting peers.
func ingestMaxOverMean(t *peer.Task) float64 {
	var max, sum uint64
	by := t.IngestByPeer()
	for _, v := range by {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(len(by)))
}
