package workload

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/monoid"
	"p2pm/internal/peer"
	"p2pm/internal/stream"
)

// AggConfig parameterizes the aggregate-query scenario: S monitored
// source peers feed a windowed group-by statistic (per-source call
// rates, the Edos motivation) that is aggregated either flat — one Group
// operator ingesting every stream, the O(n) hotspot — or as a DHT-routed
// partial/merge tree (Mode "tree"), while churn, graceful leaves and
// runtime joins reshape the merge-host pool. Completeness is measured
// per windowed group, against the deterministic expectation replayed
// from the drive schedule through the same aggregate monoid.
type AggConfig struct {
	Common
	GroupBy
	// Mode selects the deployment: "flat" (single Group aggregator) or
	// "tree" (in-network aggregation, docs/AGGREGATION.md).
	Mode string
	// Fn selects the aggregate function: "" or "count" (the exact
	// default), or any registered monoid — sum, min, max, avg, set,
	// distinct (HyperLogLog), freq (Count-Min). Value-consuming
	// functions aggregate the per-call value the drive encodes as the
	// invoked method name (the alert's callMethod attribute).
	Fn string
	// Users sizes the value universe for value-consuming functions:
	// event i carries value 1 + (i*7919 mod Users). 0 defaults to 24 —
	// within the freq monoid's exact candidate capacity, so Count-Min
	// runs score byte-exactly too.
	Users int
}

// DefaultAgg returns a moderate aggregate-query scenario.
func DefaultAgg() AggConfig {
	return AggConfig{
		Common: Common{
			Seed: 1, Sources: 6, Workers: 3, Events: 96,
			Step: time.Second, MTTR: 10 * time.Second,
			HeartbeatInterval: time.Second, Suspicion: 2 * time.Second,
		},
		GroupBy: GroupBy{Degree: 3},
		Mode:    "tree",
	}
}

// AggReport summarizes one aggregate-query run.
type AggReport struct {
	RunStats
	Fn             string // aggregate function the run deployed
	Windows        int    // distinct windows the schedule spans
	ExpectedGroups int    // (window, key) records a lossless run emits
	CorrectGroups  int    // emitted records matching the expectation exactly
	ResultGroups   int    // records actually emitted
	// Records holds the emitted result records, serialized and sorted —
	// the byte-identity artifact X4 compares between tree and flat runs.
	Records []string
	// SketchGroups / MaxRelErr / MeanRelErr score distinct-count runs:
	// each delivered HyperLogLog estimate against the exact per-group
	// distinct count replayed from the drive schedule. Sketch error is
	// deterministic here (the registers depend only on the value set),
	// so the accuracy gate is reproducible, not flaky.
	SketchGroups int
	MaxRelErr    float64
	MeanRelErr   float64
}

// Completeness is the fraction of expected windowed groups that arrived
// with exactly the right record.
func (r *AggReport) Completeness() float64 {
	if r.ExpectedGroups == 0 {
		return 1
	}
	return float64(r.CorrectGroups) / float64(r.ExpectedGroups)
}

// setup: the aggregation (flat Group at w0, or the planner's tree with
// interiors DHT-routed across the worker pool) publishes at mgr; gossip
// is the default detector — the decentralized detection the tree's
// decentralized aggregation pairs with.
func (cfg *AggConfig) setup() (*scenarioSpec[*AggReport], error) {
	if err := cfg.normalize("agg", 2, 1); err != nil {
		return nil, err
	}
	if cfg.Mode != "flat" && cfg.Mode != "tree" {
		return nil, fmt.Errorf("workload: unknown agg mode %q (want flat or tree)", cfg.Mode)
	}
	agg, ok := monoid.Lookup(cfg.Fn)
	if !ok {
		return nil, fmt.Errorf("workload: unknown aggregate %q (have count, %s)", cfg.Fn, strings.Join(monoid.Names(), ", "))
	}
	cfg.Fn = agg.Name()
	if cfg.Users <= 0 {
		cfg.Users = 24
	}
	cfg.GroupBy.defaults(cfg.Step)
	// value is the per-call value event i carries (the invoked method
	// name) in value-consuming runs.
	value := func(i int) string { return strconv.Itoa(1 + (i*7919)%cfg.Users) }

	sp := &scenarioSpec[*AggReport]{
		common:  &cfg.Common,
		sources: sourceNames(cfg.Sources),
		// DHT-routed interiors stay on the worker pool — and off w0, the
		// Final root's host, when the pool allows it: stacking the root
		// and an interior on one peer would re-create a mini-hotspot.
		aggHosts: func(name string) bool {
			return isWorker(name) && (cfg.Workers == 1 || name != "w0")
		},
		tune: func(pc *peer.Config) {
			if cfg.Mode == "tree" {
				pc.Agg.Degree = cfg.Degree
			}
		},
	}
	spec := &algebra.GroupSpec{KeyAttr: "callee", Window: cfg.Window.String()}
	if cfg.Fn != "count" {
		spec.Fn = cfg.Fn
	}
	if agg.NeedsValue() {
		sp.values = cfg.Users
		spec.ValueAttr = "callMethod"
		sp.hooks = func(l *Lab[*AggReport]) (schedule, error) {
			return schedule{Drive: func(i int) error {
				return l.invoke(i, sp.sources[i%len(sp.sources)], value(i))
			}}, nil
		}
	}
	sp.deploy = func(_ *Lab[*AggReport], mgr *peer.Peer) ([]*peer.Task, error) {
		task, err := mgr.DeployPlan(groupPlan(sp.sources, "w0", "aggstats", spec))
		return []*peer.Task{task}, err
	}
	sp.score = func(_ *Lab[*AggReport], st RunStats, results [][]stream.Item) *AggReport {
		rep := &AggReport{RunStats: st, Fn: cfg.Fn}
		exp, exactDistinct := cfg.groupOracle(cfg.Window, agg, value, 0, cfg.Sources)
		windows := map[string]bool{}
		for gk := range exp {
			windows[gk[:strings.IndexByte(gk, '|')]] = true
		}
		rep.Windows = len(windows)
		rep.ExpectedGroups = len(exp)
		got := groupRecords(results[0])
		for _, rs := range got {
			rep.ResultGroups += len(rs)
			for _, r := range rs {
				rep.Records = append(rep.Records, r.String())
			}
		}
		sort.Strings(rep.Records)
		for gk, want := range exp {
			rs := got[gk]
			if agg.NeedsValue() {
				if len(rs) == 1 && rs[0].String() == want.String() {
					rep.CorrectGroups++
				}
				continue
			}
			// Counts are commutative deltas: a lossy run may split a
			// group across emissions, and the split still scores correct
			// when the total survives.
			total := 0
			for _, r := range rs {
				n, _ := strconv.Atoi(r.AttrOr("count", "0"))
				total += n
			}
			if want.AttrOr("count", "") == strconv.Itoa(total) {
				rep.CorrectGroups++
			}
		}
		if cfg.Fn == "distinct" {
			var sum float64
			for gk, truth := range exactDistinct {
				rs := got[gk]
				if len(rs) != 1 || truth == 0 {
					continue
				}
				est, err := strconv.ParseFloat(rs[0].AttrOr("distinct", ""), 64)
				if err != nil {
					continue
				}
				re := math.Abs(est-float64(truth)) / float64(truth)
				rep.SketchGroups++
				sum += re
				rep.MaxRelErr = math.Max(rep.MaxRelErr, re)
			}
			if rep.SketchGroups > 0 {
				rep.MeanRelErr = sum / float64(rep.SketchGroups)
			}
		}
		return rep
	}
	return sp, nil
}
