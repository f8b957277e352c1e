package workload

import (
	"fmt"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/peer"
	"p2pm/internal/stream"
)

// ChurnConfig parameterizes the churn scenario: a monitored service, a
// pool of relay workers hosting the subscription's forwarding operator,
// and a crash schedule that repeatedly kills the active relay while
// events keep flowing. The supervisor must detect each death and migrate
// the operator; the report measures what the churn cost. The elastic
// knobs (GrowFrom/JoinEvery) turn membership itself into workload: the
// pool starts small and new workers join at runtime through the
// membership protocol, with no pre-registration anywhere.
type ChurnConfig struct {
	Common
	// PartitionHomeAfter, when > 0, isolates the monitor peer ("mon")
	// from the rest of the network after that many driven events. This
	// is the detector survivability gate: no single peer hosts
	// detection, so with one member cut off the quorum view still
	// confirms every real relay crash (and the isolated monitor itself),
	// repairs keep landing and a replay-on run ends at completeness 100%.
	PartitionHomeAfter int
	// Spread enables the DHT elasticity machinery: virtual-node tokens
	// (ownership rebalances incrementally on join/leave) plus
	// bounded-load placement (no peer serves more than ~2× the mean
	// checkpoint traffic). See docs/MEMBERSHIP.md.
	Spread bool
	// Pipelines deploys that many parallel relay pipelines (default 1).
	// Each has its own relay operator and named channel; the crash
	// schedule targets pipeline 0's relay. Many pipelines mean many
	// checkpoint keys — the workload the Spread measurement needs.
	Pipelines int
}

// spreadVirtualNodes / spreadLoadBound are the ring settings Spread
// turns on: enough tokens to fragment ownership at pool scale, and the
// classic 2× bounded-load factor.
const (
	spreadVirtualNodes = 32
	spreadLoadBound    = 2.0
)

// DefaultChurn returns a moderate churn scenario.
func DefaultChurn() ChurnConfig {
	return ChurnConfig{Common: Common{
		Seed: 1, Sources: 1, Workers: 4, Events: 60, CrashEvery: 15,
		MTTR: 10 * time.Second, Step: time.Second,
		HeartbeatInterval: time.Second, Suspicion: 2 * time.Second,
	}}
}

// ChurnReport summarizes one churn run.
type ChurnReport struct {
	RunStats
	Pipelines int // parallel pipelines each event traverses
	Received  int // results that reached the subscribers (all pipelines)
	// Detections counts the crashes paired with their declared death,
	// and DetectionSecs sums their virtual crash→declared-dead times.
	Detections    int
	DetectionSecs float64
}

// DetectionLatency is the mean virtual crash→declared-dead time in
// seconds (0 when no crash was detected).
func (r *ChurnReport) DetectionLatency() float64 {
	if r.Detections == 0 {
		return 0
	}
	return r.DetectionSecs / float64(r.Detections)
}

// Expected is the number of results a lossless run delivers: every
// driven event through every pipeline.
func (r *ChurnReport) Expected() int { return r.Driven * r.Pipelines }

// Completeness is the fraction of expected results that arrived. Events
// driven during an outage window (relay dead, death not yet detected)
// are genuinely lost without replay — that loss, versus the churn rate,
// is the experiment's measurement.
func (r *ChurnReport) Completeness() float64 {
	if r.Expected() == 0 {
		return 1
	}
	return float64(r.Received) / float64(r.Expected())
}

// setup: src.com hosts the monitored service Q, the relay operator(s)
// start on the initial worker pool, the publisher runs at mgr.
func (cfg *ChurnConfig) setup() (*scenarioSpec[*ChurnReport], error) {
	cfg.Sources = 1
	if err := cfg.normalize("churn", 1, 2); err != nil {
		return nil, err
	}
	if cfg.Pipelines < 1 {
		cfg.Pipelines = 1
	}
	partitioned := false
	// partitionHome isolates mon from every other current peer —
	// including ones that joined after a previous isolation, so a runtime
	// admission cannot quietly bridge the split.
	partitionHome := func(sys *peer.System) {
		var rest []string
		for _, p := range sys.Peers() {
			if p != "mon" {
				rest = append(rest, p)
			}
		}
		sys.Net.Partition([]string{"mon"}, rest)
		partitioned = true
	}
	return &scenarioSpec[*ChurnReport]{
		common:  &cfg.Common,
		sources: []string{"src.com"},
		tune: func(pc *peer.Config) {
			if cfg.Spread {
				// Bounded load brings the per-reader location cache that
				// shaves the successor-scan hops off checkpoint restores.
				pc.DHT.VirtualNodes = spreadVirtualNodes
				pc.DHT.LoadBound = spreadLoadBound
			}
		},
		deploy: func(l *Lab[*ChurnReport], mgr *peer.Peer) ([]*peer.Task, error) {
			var tasks []*peer.Task
			for i := 0; i < cfg.Pipelines; i++ {
				channelID := "churned"
				if i > 0 {
					channelID = fmt.Sprintf("churned%d", i)
				}
				relay := &algebra.Node{
					Op: algebra.OpUnion, Peer: fmt.Sprintf("w%d", i%l.startWorkers()),
					Inputs: []*algebra.Node{algebra.NewAlerter("inCOM", "ws-in", "src.com", "e", nil)},
					Schema: []string{"e"},
				}
				task, err := mgr.DeployPlan(&algebra.Node{
					Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{relay},
					Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: channelID},
				})
				if err != nil {
					return nil, err
				}
				tasks = append(tasks, task)
			}
			return tasks, nil
		},
		hooks: func(l *Lab[*ChurnReport]) (schedule, error) {
			// The partitioned monitor stays declared dead for the rest of
			// the run; its absence is deliberate and must not block the
			// one-outstanding-crash rule.
			l.sched.ignoreSuspect = func(s string) bool {
				return cfg.PartitionHomeAfter > 0 && s == "mon"
			}
			return schedule{
				Drive: func(i int) error { return l.invoke(i, "src.com", "Q") },
				Victim: func() string {
					return hostOf(l.Tasks[0].Plan, func(n *algebra.Node) bool { return n.Op == algebra.OpUnion })
				},
				AfterStep: func(driven int, _ time.Duration) {
					if cfg.PartitionHomeAfter > 0 && driven == cfg.PartitionHomeAfter {
						partitionHome(l.Sys)
					}
				},
				OnJoin: func(_ string, _ time.Duration, left int) {
					if partitioned {
						// The newcomer lands on the majority side.
						partitionHome(l.Sys)
					}
					if left == 0 {
						// Growth complete: steady-state service-load
						// measurements (the X3 checkpoint-spread table)
						// start here, excluding deployment and growth
						// traffic.
						l.Sys.DB.ResetLoad()
					}
				},
			}, nil
		},
		landed: func(l *Lab[*ChurnReport]) (int, int) {
			got := 0
			for _, t := range l.Tasks {
				got += t.Results().Len()
			}
			return got, l.sched.driven * cfg.Pipelines
		},
		score: func(l *Lab[*ChurnReport], st RunStats, results [][]stream.Item) *ChurnReport {
			rep := &ChurnReport{RunStats: st, Pipelines: cfg.Pipelines}
			for _, items := range results {
				rep.Received += len(items)
			}
			// Detection latency pairs each injected crash with the
			// earliest not-yet-consumed repair event naming its victim at
			// or after the crash time. Consuming events matters once
			// joins are in play: a joined-then-crashed-then-recovered
			// worker can be a victim twice, and both crashes must pair
			// with their own detection. Deaths the supervisor declares
			// for other reasons (the partitioned monitor) never enter the
			// sample.
			events := l.Sup.Events()
			used := make([]bool, len(events))
			for _, c := range st.CrashLog {
				for i, ev := range events {
					if !used[i] && ev.From == c.Peer && ev.At >= c.At {
						used[i] = true
						rep.Detections++
						rep.DetectionSecs += float64(ev.At-c.At) / float64(time.Second)
						break
					}
				}
			}
			return rep
		},
	}, nil
}
