package workload

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"p2pm/internal/aggtree"
	"p2pm/internal/algebra"
	"p2pm/internal/monoid"
	"p2pm/internal/peer"
	"p2pm/internal/simnet"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// Common is the part of every scenario config the lab core owns: the
// cluster's size, the drive length and the membership schedules. The
// scenario configs (ChurnConfig, AggConfig, ShareConfig, AdaptConfig)
// embed it; New validates it and fills its defaults in place, once, so a
// caller reads the values a run actually used back from its own config.
type Common struct {
	Seed    int64
	Sources int // monitored source peers s0..sS-1 (churn monitors one, src.com)
	Workers int // full worker pool w0..wW-1: relay, merge and failover hosts
	Events  int // client calls driven, round-robin across the sources
	// Step is the virtual time between driven events (default 1s).
	Step time.Duration
	// CrashEvery crashes the scenario's current victim — the relay host,
	// the first aggregation interior's host — after every k driven events
	// (0 = never). One crash is outstanding at a time.
	CrashEvery int
	// LeaveEvery makes the victim *gracefully leave* every k events
	// (0 = never): System.LeavePeer announces the departure, hands off DHT
	// keys and migrates its operators immediately — no suspicion window,
	// no death declared. The leaver rejoins through the membership
	// protocol after MTTR.
	LeaveEvery int
	// MTTR is the virtual downtime before a crashed or departed worker
	// returns to the pool.
	MTTR time.Duration
	// GrowFrom, when > 0, starts the run with only that many workers
	// registered; the remaining Workers-GrowFrom join at runtime via
	// System.JoinPeer (seeded at mgr). It must leave at least one worker
	// to admit and keep the scenario's minimum pool at start. 0
	// pre-registers the whole pool.
	GrowFrom int
	// JoinEvery admits one pending worker every N driven events; 0 spreads
	// the joins evenly across the run. Every pending worker must fit in
	// the run: a stranded one would silently skew every full-scale claim.
	JoinEvery int
	// HeartbeatInterval / Suspicion configure the gossip failure detector
	// (its probe period and suspicion window).
	HeartbeatInterval time.Duration
	Suspicion         time.Duration
	// Replay enables the lossless-failover layer: upstream replay buffers,
	// consumer cursors and operator checkpointing.
	Replay bool
	// ReplayBuffer is the per-channel retention in items when Replay is
	// on (default defaultReplayBuffer).
	ReplayBuffer int
	// CheckpointInterval is the operator checkpoint cadence when Replay
	// is on (default two heartbeat intervals).
	CheckpointInterval time.Duration
}

// defaultReplayBuffer covers every schedule the experiments and soaks
// drive (the longest is 600 events) without eviction.
const defaultReplayBuffer = 4096

// GroupBy holds the windowed group-by settings the three aggregation
// scenarios share.
type GroupBy struct {
	// Window is the tumbling window; 0 defaults to 8×Step. Keep it a
	// multiple of Step so virtual event times land inside windows.
	Window time.Duration
	// Degree is the aggregation-tree fan-in bound (default 3).
	Degree int
}

func (g *GroupBy) defaults(step time.Duration) {
	if g.Degree <= 1 {
		g.Degree = 3
	}
	if g.Window <= 0 {
		g.Window = 8 * step
	}
}

// normalize is the one validation and defaulting pass over the shared
// config; the scenario supplies its name and its minimum cluster.
func (c *Common) normalize(name string, minSources, minWorkers int) error {
	if c.Sources < minSources || c.Workers < minWorkers {
		return fmt.Errorf("workload: %s needs >= %d sources and >= %d workers (got %d/%d)",
			name, minSources, minWorkers, c.Sources, c.Workers)
	}
	if c.Step <= 0 {
		c.Step = time.Second
	}
	if c.GrowFrom > 0 {
		if c.GrowFrom < minWorkers || c.GrowFrom >= c.Workers {
			return fmt.Errorf("workload: GrowFrom %d out of range [%d, %d)", c.GrowFrom, minWorkers, c.Workers)
		}
		pending := c.Workers - c.GrowFrom
		if c.JoinEvery <= 0 {
			c.JoinEvery = max(1, c.Events/(pending+1))
		}
		if pending*c.JoinEvery > c.Events {
			return fmt.Errorf("workload: %d joins every %d events do not fit in %d events", pending, c.JoinEvery, c.Events)
		}
	}
	if c.Replay {
		if c.ReplayBuffer <= 0 {
			c.ReplayBuffer = defaultReplayBuffer
		}
		if c.CheckpointInterval <= 0 {
			c.CheckpointInterval = 2 * c.HeartbeatInterval
		}
		if c.CheckpointInterval <= 0 {
			c.CheckpointInterval = 2 * time.Second
		}
	}
	return nil
}

// MemberEvent records one injected crash or runtime admission.
type MemberEvent struct {
	Peer string
	At   time.Duration
}

// RunStats is what every scenario run measures, filled in one place
// (Lab.Run); the scenario reports embed it next to their own score.
type RunStats struct {
	Driven  int // events driven at the sources
	Crashes int // crashes injected
	Leaves  int // graceful departures injected
	Joins   int // workers admitted at runtime
	Deaths  int // deaths the detector declared
	Repairs int // successful operator migrations by the supervisor
	// LeaveRepairs counts migrations the graceful-leave handoffs took
	// (they bypass the supervisor, so Repairs does not include them).
	LeaveRepairs int
	Replayed     uint64 // items retransmitted from replay buffers
	// CrashLog / JoinLog are the injected schedules, in injection order.
	CrashLog []MemberEvent
	JoinLog  []MemberEvent
	// Timeline interleaves the run's membership events (join, leave,
	// rejoin, crash, dead, recovered) in occurrence order with virtual
	// timestamps — the determinism artifact: same seed, same config ⇒
	// byte-identical timelines.
	Timeline []string
	Traffic  simnet.Totals
	// Ingest is the per-peer operator ingest (items consumed by the lab's
	// plan operators hosted there) over the candidate hosts — every
	// source and every worker, zeros included: the denominator of the
	// hotspot measure.
	Ingest     map[string]uint64
	IngestMax  uint64
	IngestMean float64
}

// IngestRatio is max/mean per-peer ingest — the hotspot factor. A flat
// aggregator concentrates everything on one host (ratio ~ pool size); a
// degree-d tree bounds every host's fan-in.
func (s *RunStats) IngestRatio() float64 {
	if s.IngestMean == 0 {
		return 0
	}
	return float64(s.IngestMax) / s.IngestMean
}

// Scenario is implemented by the four scenario configs (by pointer, so
// New can normalize them in place); R is the scenario's report type.
type Scenario[R any] interface {
	// setup validates and defaults the config and describes what the
	// scenario adds to the lab core.
	setup() (*scenarioSpec[R], error)
}

// scenarioSpec is everything that differs between scenarios: cluster
// data, the plans deployed, the schedule hooks and the score.
type scenarioSpec[R any] struct {
	common *Common
	// sources names the monitored peers; values > 0 additionally
	// registers services "1".."values" on each (value-consuming
	// aggregates encode the per-call value as the invoked method name, so
	// the ws-in alert carries it in callMethod without new plumbing).
	sources []string
	values  int
	// bare leaves out the "mon" peer (a monitor that hosts no operator —
	// the one the churn scenario's survivability run partitions away) and
	// the load bias that keeps failover inside the worker pool.
	bare bool
	// aggHosts scopes DHT-routed interior placement (default: workers).
	aggHosts func(name string) bool
	// tune adjusts the peer config beyond what Common sets.
	tune func(*peer.Config)
	// undisturbed runs without a detector or supervisor (a ground-truth
	// deployment); the runner then injects no crash or leave.
	undisturbed bool
	// gossip is the scenario's detector tuning beyond what Common sets
	// (Seed, ProbeInterval and Suspicion are overwritten from there).
	gossip peer.GossipOptions
	// deploy deploys the scenario's plan(s) from mgr, in dependency order
	// (Tasks[0] is torn down first).
	deploy func(l *Lab[R], mgr *peer.Peer) ([]*peer.Task, error)
	// hooks, when set, runs once the supervisor is up and returns the
	// scenario's schedule hooks. Drive defaults to calling Q round-robin
	// across the sources, Victim to the first task's aggregation host.
	hooks func(l *Lab[R]) (schedule, error)
	// landed, when set, reports delivered and expected result counts; a
	// replay-on drain steps until they meet instead of a fixed number of
	// rounds.
	landed func(l *Lab[R]) (got, want int)
	// beforeStop observes live operator state after the drain.
	beforeStop func(l *Lab[R])
	// score builds the report from the shared stats and each task's
	// drained results.
	score func(l *Lab[R], st RunStats, results [][]stream.Item) R
}

// Lab is one assembled scenario: the cluster, the deployed tasks, the
// supervisor and the shared schedule runner.
type Lab[R any] struct {
	Sys   *peer.System
	Tasks []*peer.Task     // Tasks[0] holds the crash/leave schedule's target
	Sup   *peer.Supervisor // nil in an undisturbed run

	spec  *scenarioSpec[R]
	sched *schedRunner
	hooks schedule
}

func sourceNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%d", i)
	}
	return out
}

func isWorker(name string) bool { return strings.HasPrefix(name, "w") }

// New validates and normalizes the scenario config in place, builds its
// cluster — mgr (publisher and join seed), the client c.com, mon, the
// sources with their echo service, the initial worker pool with the rest
// pending — deploys its plans and starts the supervisor.
func New[R any](sc Scenario[R]) (*Lab[R], error) {
	sp, err := sc.setup()
	if err != nil {
		return nil, err
	}
	c := sp.common
	pc := peer.DefaultConfig()
	pc.Seed = c.Seed
	if c.Replay {
		pc.Replay.Buffer = c.ReplayBuffer
		pc.Replay.CheckpointInterval = c.CheckpointInterval
	}
	if sp.tune != nil {
		sp.tune(&pc)
	}
	sys, err := peer.NewSystem(pc)
	if err != nil {
		return nil, err
	}
	l := &Lab[R]{Sys: sys, spec: sp, sched: newSchedRunner(sys)}

	fixed := []string{"mgr", "c.com"}
	if !sp.bare {
		fixed = append(fixed, "mon")
	}
	for _, name := range append(fixed, sp.sources...) {
		if _, err := sys.AddPeer(name); err != nil {
			return nil, err
		}
		if !sp.bare {
			// Operators belong on the worker pool: every other peer is
			// load-biased against failover placement.
			sys.Net.AddLoad(name, 1000)
		}
	}
	echo := func(*xmltree.Node) (*xmltree.Node, error) { return xmltree.Elem("ok"), nil }
	for _, name := range sp.sources {
		ep := sys.Peer(name).Endpoint()
		ep.Register("Q", echo, nil)
		for u := 1; u <= sp.values; u++ {
			ep.Register(strconv.Itoa(u), echo, nil)
		}
	}
	start := c.Workers
	if c.GrowFrom > 0 {
		start = c.GrowFrom
	}
	for i := 0; i < c.Workers; i++ {
		name := fmt.Sprintf("w%d", i)
		if i >= start {
			l.sched.pending = append(l.sched.pending, name)
		} else if _, err := sys.AddPeer(name); err != nil {
			return nil, err
		}
	}
	aggHosts := sp.aggHosts
	if aggHosts == nil {
		aggHosts = isWorker
	}
	sys.SetAggHosts(aggHosts)

	if l.Tasks, err = sp.deploy(l, sys.Peer("mgr")); err != nil {
		return nil, err
	}
	if !sp.undisturbed {
		opts := sp.gossip
		opts.Seed, opts.ProbeInterval, opts.Suspicion = c.Seed, c.HeartbeatInterval, c.Suspicion
		l.Sup = sys.StartGossipSupervisor(opts)
		l.sched.attach(l.Sup)
	}
	if sp.hooks != nil {
		if l.hooks, err = sp.hooks(l); err != nil {
			return nil, err
		}
	}
	if l.hooks.Drive == nil {
		l.hooks.Drive = func(i int) error { return l.invoke(i, sp.sources[i%len(sp.sources)], "Q") }
	}
	if l.hooks.Victim == nil {
		l.hooks.Victim = func() string { return aggHost(l.Tasks[0].Plan) }
	}
	l.hooks.c = c
	return l, nil
}

// startWorkers is the size of the worker pool at deploy time.
func (l *Lab[R]) startWorkers() int { return l.spec.common.Workers - len(l.sched.pending) }

// hostOf returns the peer hosting the first operator, in plan postorder,
// that match accepts ("" when none does).
func hostOf(plan *algebra.Node, match func(*algebra.Node) bool) string {
	host := ""
	plan.Walk(func(n *algebra.Node) {
		if host == "" && match(n) {
			host = n.Peer
		}
	})
	return host
}

// aggHost is the aggregation scenarios' victim: the host of the plan's
// first DHT-routed interior, or of the flat aggregator / Final root when
// the tree has none.
func aggHost(plan *algebra.Node) string {
	if ins := aggtree.Interiors(plan); len(ins) > 0 {
		return ins[0].Peer
	}
	return hostOf(plan, func(n *algebra.Node) bool { return n.Op == algebra.OpGroup || n.Op == algebra.OpMergeAgg })
}

// Victim names the peer the crash and leave schedules currently target.
func (l *Lab[R]) Victim() string { return l.hooks.Victim() }

// groupPlan builds the flat-shaped windowed group-by over the sources'
// ws-in alerts, aggregated at host and published at mgr; with
// peer.Config.Agg.Degree set the planner rewrites it into a tree.
func groupPlan(sources []string, host, channel string, spec *algebra.GroupSpec) *algebra.Node {
	var branches []*algebra.Node
	for _, s := range sources {
		branches = append(branches, algebra.NewAlerter("inCOM", "ws-in", s, "e", nil))
	}
	union := &algebra.Node{Op: algebra.OpUnion, Peer: host, Inputs: branches, Schema: []string{"e"}}
	group := &algebra.Node{
		Op: algebra.OpGroup, Peer: host, Inputs: []*algebra.Node{union},
		Schema: []string{"e"}, Group: spec,
	}
	return &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{group},
		Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: channel},
	}
}

// invoke drives one client call.
func (l *Lab[R]) invoke(i int, target, method string) error {
	if _, err := l.Sys.Peer("c.com").Endpoint().Invoke(target, method, nil); err != nil {
		return fmt.Errorf("workload: driving event %d: %w", i, err)
	}
	return nil
}

// undetected counts injected crashes the supervisor has not declared
// yet. Deaths are matched against the crash log as a multiset: a worker
// that joined, crashed, recovered and crashed again counts once per
// injected crash, while deaths declared for other reasons — the
// partitioned monitor, a join-flap false positive — are not injected
// crashes and must not satisfy (or overshoot) the wait.
func (l *Lab[R]) undetected() int {
	quota := map[string]int{}
	for _, c := range l.sched.crashLog {
		quota[c.Peer]++
	}
	n := len(l.sched.crashLog)
	for _, d := range l.Sup.Deaths() {
		if quota[d] > 0 {
			quota[d]--
			n--
		}
	}
	return n
}

// drain lets the run's cost complete. Outstanding detections finish
// first. A scenario whose records only flush at teardown (windowed
// groups) then gives the anti-entropy sweep a fixed few rounds to refill
// remaining losses. One that can count its results steps exactly as long
// as needed: with replay every driven event is recoverable, so it
// continues until the last result lands (bounded); without replay what is
// lost stays lost and there is nothing to wait for.
func (l *Lab[R]) drain() {
	step := l.spec.common.Step
	for i := 0; i < 64 && l.Sup != nil && l.undetected() > 0; i++ {
		l.Sys.Step(step)
	}
	l.Sys.Quiesce()
	if l.spec.landed == nil {
		for i := 0; i < 8; i++ {
			l.Sys.Step(step)
			l.Sys.Quiesce()
		}
		return
	}
	if !l.spec.common.Replay {
		return
	}
	for i := 0; i < 64; i++ {
		if got, want := l.spec.landed(l); got >= want {
			return
		}
		l.Sys.Step(step)
		l.Sys.Quiesce()
	}
}

// foldIngest reads the per-host ingest over the candidate host set from
// the System.AggLoad stats surface (the gauge the re-chunking controller
// consumes), filtered to this lab's tasks.
func (l *Lab[R]) foldIngest(st *RunStats) {
	mine := make(map[string]bool, len(l.Tasks))
	for _, t := range l.Tasks {
		mine[t.ID] = true
	}
	byPeer := make(map[string]uint64)
	for _, e := range l.Sys.AggLoad() {
		if mine[e.Task] {
			byPeer[e.Peer] += e.Items
		}
	}
	st.Ingest = make(map[string]uint64)
	var total uint64
	hosts := append([]string(nil), l.spec.sources...)
	for i := 0; i < l.spec.common.Workers; i++ {
		hosts = append(hosts, fmt.Sprintf("w%d", i))
	}
	for _, name := range hosts {
		st.Ingest[name] = byPeer[name]
		total += byPeer[name]
		st.IngestMax = max(st.IngestMax, byPeer[name])
	}
	st.IngestMean = float64(total) / float64(len(hosts))
}

// Run drives the configured events with the crash, leave and join
// schedules interleaved, drains, tears the tasks down in dependency
// order and returns the scenario's report.
func (l *Lab[R]) Run() (R, error) {
	sp, r := l.spec, l.sched
	if err := r.run(l.hooks); err != nil {
		var zero R
		return zero, err
	}
	l.drain()

	st := RunStats{
		Driven: r.driven, Crashes: r.crashes, Leaves: r.leaves, Joins: r.joins,
		LeaveRepairs: r.leaveRepairs, CrashLog: r.crashLog, JoinLog: r.joinLog,
	}
	l.foldIngest(&st)
	if sp.beforeStop != nil {
		sp.beforeStop(l)
	}
	// Teardown in deployment order: earlier tasks never consume later
	// ones' streams, so stopping the first propagates EOS to every
	// dependent — trailing windows flush — before its own Stop detaches
	// it.
	l.Tasks[0].Stop()
	l.Sys.Quiesce()
	for _, t := range l.Tasks[1:] {
		t.Stop()
	}
	l.Sys.Quiesce()
	results := make([][]stream.Item, len(l.Tasks))
	for i, t := range l.Tasks {
		results[i] = t.Results().Drain()
	}
	if l.Sup != nil {
		st.Deaths = len(l.Sup.Deaths())
		for _, ev := range l.Sup.Events() {
			if ev.Repaired() {
				st.Repairs++
			}
		}
	}
	st.Replayed = l.Sys.ReplayedItems()
	st.Timeline = r.timeline
	st.Traffic = l.Sys.Net.Totals()
	return sp.score(l, st, results), nil
}

// groupOracle replays the drive schedule — event i calls source i mod S
// at virtual time i×Step carrying value(i) — through the monoid the
// deployment runs, restricted to sources [lo, hi): per (window|key) the
// exact <group> record a lossless run emits, plus the true distinct-value
// count per group (the accuracy reference for sketch estimates).
// Replaying the monoid itself keeps the expectation byte-exact even for
// sketches: HLL registers and Count-Min cells depend only on the absorbed
// value multiset, never on arrival order or partial/merge splits.
func (c *Common) groupOracle(window time.Duration, agg monoid.Monoid, value func(i int) string, lo, hi int) (map[string]*xmltree.Node, map[string]int) {
	states := make(map[string]monoid.State)
	recs := make(map[string]*xmltree.Node)
	exact := make(map[string]map[string]bool)
	for i := 0; i < c.Events; i++ {
		src := i % c.Sources
		if src < lo || src >= hi {
			continue
		}
		w := int64(time.Duration(i) * c.Step / window)
		key := fmt.Sprintf("http://s%d", src)
		gk := fmt.Sprintf("%d|%s", w, key)
		st := states[gk]
		if st == nil {
			st = agg.Zero()
			states[gk] = st
			recs[gk] = xmltree.Elem("group")
			recs[gk].SetAttr("key", key)
			exact[gk] = make(map[string]bool)
		}
		val := ""
		if agg.NeedsValue() {
			val = value(i)
			exact[gk][val] = true
		}
		st.Absorb(val) //nolint:errcheck // schedule values are well-formed
	}
	distinct := make(map[string]int, len(exact))
	for gk, st := range states {
		n := recs[gk]
		st.Final(func(a, v string) { n.SetAttr(a, v) })
		n.SetAttr("window", gk[:strings.IndexByte(gk, '|')])
		distinct[gk] = len(exact[gk])
	}
	return recs, distinct
}

// groupRecords indexes a task's emitted <group> records by window|key.
func groupRecords(items []stream.Item) map[string][]*xmltree.Node {
	got := make(map[string][]*xmltree.Node)
	for _, it := range items {
		if it.Tree.Label == "group" {
			gk := it.Tree.AttrOr("window", "?") + "|" + it.Tree.AttrOr("key", "?")
			got[gk] = append(got[gk], it.Tree)
		}
	}
	return got
}

// Run assembles the scenario and runs it: New followed by Lab.Run, for
// callers that need only the report.
func Run[R any](sc Scenario[R]) (R, error) {
	l, err := New(sc)
	if err != nil {
		var zero R
		return zero, err
	}
	return l.Run()
}
