// The adapt scenario: the self-adaptive runtime under a diurnal +
// hotspot profile. One windowed group-by-count aggregation runs over
// skewed sources while the substrate degrades on a schedule: a worker
// hosting the hot interior turns slow-but-alive twice (the diurnal
// phases — inflated latency and message loss on its links, every message
// still eventually arriving), and a second worker flaps (true crash,
// recover, crash again). The static run takes the classic damage: the
// gossip detector false-kills the slow peer and failover churns state
// for nothing, the hot interior stays hot, the flapper re-hosts state
// between its crashes. The adaptive run turns on the PR 9 control loops
// — Lifeguard health scaling in the detector, the load-driven
// re-chunking controller, and an adapt.Loop fed by a P2PML subscription
// over the detector's own telemetry that quarantines the flapper and
// raises DHT replication under death bursts — and must kill nobody
// falsely, split the hot interior at runtime, and still publish records
// byte-identical to the undisturbed flat deployment.
package workload

import (
	"fmt"
	"sort"
	"time"

	"p2pm/internal/adapt"
	"p2pm/internal/algebra"
	"p2pm/internal/peer"
	"p2pm/internal/stream"
)

// AdaptConfig parameterizes the self-adaptation scenario. Of the shared
// config, HeartbeatInterval is the gossip protocol period and Suspicion
// the static trap's aggressiveness (peer.ProbeTimeout is its other
// half); Replay follows Mode.
type AdaptConfig struct {
	Common
	GroupBy
	// Mode selects the deployment: "flat" (undisturbed ground truth —
	// flat Group, no faults, no detector), "static" (tree + faults,
	// controllers off) or "adaptive" (tree + faults, controllers on).
	Mode string

	// HotSpan: events i with i%HotSpan != HotSpan-1 hit the hot half of
	// the sources (the first Degree leaves — one interior's subtree).
	HotSpan int

	// SlowDelay/SlowDrop degrade every link of the slow worker during
	// the two diurnal phases; the worker stays alive throughout.
	SlowDelay time.Duration
	SlowDrop  float64
}

// adaptHealthMax caps the adaptive multiplier so a true crash is still
// confirmed within the flapper's downtime even at peak health.
const adaptHealthMax = 3

// flapperDowntime is how many events of the given step the flapper
// stays down: long enough that each crash is confirmed while the peer
// is actually down, in both modes. Detection waits for the first probe,
// the widest adaptive suspicion window ((1+HealthMax)×Suspicion), the
// one window extension (Suspicion) and a second view to complete the
// death quorum, which opens its own window only when the suspicion
// reaches it. The downtime is twice the widest window: 16 periods at
// the defaults, against a worst adaptive-mode confirmation of 13 over
// seeds 1–200.
// A shorter one lets a crash go unconfirmed, or be confirmed after the
// recovery as a false kill.
func flapperDowntime(g peer.GossipOptions, step time.Duration) int {
	widest := time.Duration(1+g.HealthMax) * g.Suspicion
	return int((2*widest + step - 1) / step)
}

// DefaultAdapt returns the scenario the X6 experiment runs.
func DefaultAdapt() AdaptConfig {
	return AdaptConfig{
		Common: Common{
			Seed: 9, Sources: 8, Workers: 3, Events: 96, Step: time.Second,
			HeartbeatInterval: time.Second, Suspicion: 2 * time.Second,
		},
		GroupBy:   GroupBy{Window: 16 * time.Second, Degree: 4},
		Mode:      "adaptive",
		HotSpan:   6,
		SlowDelay: 400 * time.Millisecond,
		SlowDrop:  0.3,
	}
}

// AdaptReport is the outcome of one adapt run.
type AdaptReport struct {
	RunStats
	Mode    string
	Records []string

	FalseKills int      // confirmed deaths of peers that were alive
	TrueKills  int      // confirmed deaths of actually crashed peers
	Kills      []string // every confirmed death: peer, virtual time, crashed?

	Splits      int
	SplitEvents []peer.SplitEvent
	// PostMax/PostMean: per-first-level-interior ingest over the final
	// quarter of the run (after any splits settled), max and mean.
	PostMax  uint64
	PostMean float64

	HealthPeak  int      // highest Lifeguard health score sampled
	Quarantines int      // adapt.Loop engage events on the flapper rule
	ReplRaises  int      // adapt.Loop engage events on the dht rule
	Quarantined []string // quarantine set at teardown

	SlowPeer string
	Flapper  string
}

// PostRatio is the post-split load skew (max over mean; 0 when no
// interior ingested anything in the final quarter).
func (r *AdaptReport) PostRatio() float64 {
	if r.PostMean == 0 {
		return 0
	}
	return float64(r.PostMax) / r.PostMean
}

// Completeness compares records against a baseline run's: the matched
// fraction of the baseline multiset.
func (r *AdaptReport) Completeness(baseline []string) float64 {
	if len(baseline) == 0 {
		return 0
	}
	have := map[string]int{}
	for _, rec := range r.Records {
		have[rec]++
	}
	matched := 0
	for _, rec := range baseline {
		if have[rec] > 0 {
			have[rec]--
			matched++
		}
	}
	return float64(matched) / float64(len(baseline))
}

// Identical reports byte-identity with a baseline record set (both
// sides sorted).
func (r *AdaptReport) Identical(baseline []string) bool {
	if len(r.Records) != len(baseline) {
		return false
	}
	for i := range baseline {
		if r.Records[i] != baseline[i] {
			return false
		}
	}
	return true
}

// firstLevelInteriors lists the key-routed interiors whose inputs are
// all PartialAgg leaves — the nodes whose gauges move mid-run.
func firstLevelInteriors(plan *algebra.Node) []*algebra.Node {
	var out []*algebra.Node
	plan.Walk(func(n *algebra.Node) {
		if n.Op != algebra.OpMergeAgg || n.AggKey == "" {
			return
		}
		for _, in := range n.Inputs {
			if in.Op != algebra.OpPartialAgg {
				return
			}
		}
		out = append(out, n)
	})
	return out
}

// interiorGauges snapshots ItemsIn per first-level interior key.
func interiorGauges(sys *peer.System, task *peer.Task) map[string]uint64 {
	keys := map[string]bool{}
	for _, n := range firstLevelInteriors(task.Plan) {
		keys[n.AggKey] = true
	}
	out := map[string]uint64{}
	for _, e := range sys.AggLoad() {
		if e.Task == task.ID && keys[e.Key] {
			out[e.Key] += e.Items
		}
	}
	return out
}

// setup builds the deployment for one mode. The cluster is bare — no
// monitor peer, no load bias: X6's static-mode damage was calibrated on
// this gossip member set and these failover placements, and moves with
// them.
func (cfg *AdaptConfig) setup() (*scenarioSpec[*AdaptReport], error) {
	if cfg.Mode != "flat" && cfg.Mode != "static" && cfg.Mode != "adaptive" {
		return nil, fmt.Errorf("workload: unknown adapt mode %q (want flat, static or adaptive)", cfg.Mode)
	}
	faults := cfg.Mode != "flat"
	cfg.Replay = faults
	if cfg.Degree < 4 {
		return nil, fmt.Errorf("workload: adapt needs Degree >= 4 (got %d)", cfg.Degree)
	}
	// One interior's worth of sources per half; two workers so the
	// flapper is distinct from the slow peer.
	if err := cfg.normalize("adapt", cfg.Degree, 2); err != nil {
		return nil, err
	}
	cfg.GroupBy.defaults(cfg.Step)
	rep := &AdaptReport{Mode: cfg.Mode}
	crashed := map[string]bool{}
	var snap, final map[string]uint64
	var loop *adapt.Loop
	sources := sourceNames(cfg.Sources)
	gossip := peer.GossipOptions{Suspicion: cfg.Suspicion, Adaptive: cfg.Mode == "adaptive", HealthMax: adaptHealthMax}
	downtime := flapperDowntime(gossip, cfg.Step)

	return &scenarioSpec[*AdaptReport]{
		common:      &cfg.Common,
		sources:     sources,
		bare:        true,
		undisturbed: !faults,
		gossip:      gossip,
		tune: func(pc *peer.Config) {
			if faults {
				pc.Agg.Degree = cfg.Degree
			}
			if cfg.Mode == "adaptive" {
				// The re-chunking controller: split an interior that
				// ingests 1.5× the mean for three observations.
				pc.Agg.SplitRatio = 1.5
				pc.Agg.SplitCooldown = 10 * cfg.Step
			}
		},
		deploy: func(_ *Lab[*AdaptReport], mgr *peer.Peer) ([]*peer.Task, error) {
			task, err := mgr.DeployPlan(groupPlan(sources, "w0", "adapt",
				&algebra.GroupSpec{KeyAttr: "callee", Window: fmt.Sprint(cfg.Window)}))
			return []*peer.Task{task}, err
		},
		hooks: func(l *Lab[*AdaptReport]) (schedule, error) {
			sys := l.Sys
			// target picks event i's source under the hotspot profile.
			target := func(i int) string {
				half := cfg.Degree
				if cfg.HotSpan > 1 && i%cfg.HotSpan == cfg.HotSpan-1 {
					return sources[half+i%(cfg.Sources-half)]
				}
				return sources[i%half]
			}
			if !faults {
				return schedule{Drive: func(i int) error { return l.invoke(i, target(i), "Q") }}, nil
			}
			// The slow peer hosts the hot interior (skewed drive lands
			// there); the flapper is a different worker.
			hot := firstLevelInteriors(l.Tasks[0].Plan)
			if len(hot) < 2 {
				return schedule{}, fmt.Errorf("workload: tree has %d first-level interiors, need >= 2", len(hot))
			}
			rep.SlowPeer = hot[0].Peer
			// Prefer a flapper that hosts real state (the other first-level
			// interior) so its crashes exercise failover, not just detection.
			rep.Flapper = hot[1].Peer
			for i := cfg.Workers - 1; i >= 0 && rep.Flapper == rep.SlowPeer; i-- {
				rep.Flapper = fmt.Sprintf("w%d", i)
			}
			det := l.Sup.Detector()
			det.OnDeath(func(p string, at time.Duration) {
				if crashed[p] {
					rep.TrueKills++
				} else {
					rep.FalseKills++
				}
				rep.Kills = append(rep.Kills, fmt.Sprintf("%s@%s crashed=%v", p, at, crashed[p]))
			})
			if cfg.Mode == "adaptive" {
				// The loop's input is an ordinary P2PML subscription over
				// the detector's own telemetry — the monitor monitoring
				// itself.
				mgr := sys.Peer("mgr")
				adapt.Sysmon(det, mgr)
				sysTask, err := mgr.Subscribe(adapt.SysmonQuery("mgr"))
				if err != nil {
					return schedule{}, fmt.Errorf("workload: sysmon subscription: %w", err)
				}
				tun := sys.Tuning()
				// Hysteresis windows scale with the schedule: the flapper's
				// two crashes are Events/4 periods apart, so half the run
				// must count as one burst, and quiet must outlast the run
				// (quarantine holds to teardown).
				within := time.Duration(cfg.Events) * cfg.Step / 2
				quiet := 2 * time.Duration(cfg.Events) * cfg.Step
				repl := sys.Ring.Replication()
				loop = adapt.NewLoop()
				loop.MustAdd(adapt.QuarantineFlapper(tun, 2, within, quiet))
				loop.MustAdd(adapt.RaiseReplication(tun, repl, repl+1, 2, within, quiet))
				adapt.Attach(sys, sysTask, loop)
			}
			// setSlow degrades or restores every link of the slow peer.
			setSlow := func(on bool) {
				delay, drop := time.Duration(0), 0.0
				if on {
					delay, drop = cfg.SlowDelay, cfg.SlowDrop
				}
				for _, other := range sys.Net.Nodes() {
					if other == rep.SlowPeer {
						continue
					}
					sys.Net.SetExtraDelay(other, rep.SlowPeer, delay)
					sys.Net.SetExtraDelay(rep.SlowPeer, other, delay)
					sys.Net.SetDrop(other, rep.SlowPeer, drop)
					sys.Net.SetDrop(rep.SlowPeer, other, drop)
				}
			}
			// The diurnal phases: two slow windows for the hot-interior
			// host. The flapper's two crash/recover cycles, each downtime
			// events long (flapperDowntime).
			phase := cfg.Events / 6
			return schedule{
				Drive: func(i int) error {
					for _, span := range [][2]int{{phase, 3 * phase}, {4 * phase, 5 * phase}} {
						if i == span[0] {
							setSlow(true)
						}
						if i == span[1] {
							setSlow(false)
						}
					}
					for _, start := range []int{cfg.Events / 4, cfg.Events / 2} {
						if i == start {
							sys.Net.Crash(rep.Flapper) //nolint:errcheck // known node
							crashed[rep.Flapper] = true
						}
						if i == start+downtime {
							sys.Net.Recover(rep.Flapper) //nolint:errcheck // known node
							crashed[rep.Flapper] = false
						}
					}
					return l.invoke(i, target(i), "Q")
				},
				AfterStep: func(driven int, _ time.Duration) {
					for _, n := range sys.Net.Nodes() {
						rep.HealthPeak = max(rep.HealthPeak, det.HealthOf(n))
					}
					if driven-1 == 3*cfg.Events/4 {
						l.Sys.Quiesce()
						snap = interiorGauges(sys, l.Tasks[0])
					}
				},
			}, nil
		},
		beforeStop: func(l *Lab[*AdaptReport]) { final = interiorGauges(l.Sys, l.Tasks[0]) },
		score: func(l *Lab[*AdaptReport], st RunStats, results [][]stream.Item) *AdaptReport {
			rep.RunStats = st
			var total uint64
			for key, items := range final {
				delta := items - snap[key]
				if items < snap[key] {
					// A failover re-deploy reset this interior's gauge;
					// count what the fresh instance ingested.
					delta = items
				}
				rep.PostMax = max(rep.PostMax, delta)
				total += delta
			}
			if len(final) > 0 {
				rep.PostMean = float64(total) / float64(len(final))
			}
			rep.SplitEvents = l.Sys.SplitEvents()
			rep.Splits = len(rep.SplitEvents)
			rep.Quarantined = l.Sys.Tuning().Quarantined()
			if loop != nil {
				for _, ev := range loop.Events() {
					switch {
					case !ev.Engaged:
					case ev.Rule == "quarantine-flapper":
						rep.Quarantines++
					case ev.Rule == "raise-replication":
						rep.ReplRaises++
					}
				}
			}
			for _, it := range results[0] {
				rep.Records = append(rep.Records, it.Tree.String())
			}
			sort.Strings(rep.Records)
			return rep
		},
	}, nil
}
