package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"p2pm/bench/gen"
	"p2pm/internal/aggtree"
	"p2pm/internal/algebra"
	"p2pm/internal/dht"
	"p2pm/internal/kadop"
	"p2pm/internal/p2pml"
	"p2pm/internal/peer"
	"p2pm/internal/reuse"
	"p2pm/internal/stream"
	"p2pm/internal/telemetry"
)

// control-plane: the same layers used differently.
//
// Phase A (deploy): rounds of fresh System -> 500 overlapping P2PML group
// subscriptions over sliding ranges of 16 sources (the first spans all)
// via Peer.Subscribe -> 4 events per source -> Stop all.
// p2pml/algebra/reuse/kadop/dht do the work.
//
// Phase B (churn): one System, 64 peers, gossip supervisor, replay buffer
// 4096, checkpoints every 2 s, 200 live tasks including one DHT-routed
// tree; loop: 16 events, quiesce, Step(1s); every 20 steps the tree's
// first interior host crashes (detected by gossip, repaired by the
// supervisor) and recovers 10 virtual seconds later. System.Step,
// failover and replay do the work.

const (
	ctlSources     = 16
	ctlSubs        = 500
	ctlEventsPer   = 4 // events per source in a phase-A round
	ctlPeers       = 64
	ctlWorkers     = 8
	ctlTasks       = 200
	ctlEventsStep  = 16
	ctlChurnWindow = 10 * time.Second
	ctlShareA      = 0.6
	ctlDeathWindow = 15 * time.Second // virtual: detection takes 6 s, late quorum confirmation up to 11 s
	ctlSetupReps   = 30
)

var ctlMethods = []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"}

// deploySub is the i-th phase-A subscription: a windowed group-by-count
// over a range of sources.
func deploySub(sources []string, i int) string {
	return fmt.Sprintf(`for $e in %s return $e group on "callee" window "24s" by publish as channel "g%d"`, inCOM(sources), i)
}

// deployRound is one phase-A round's measurements.
type deployRound struct {
	subs, ops, failedLookups int
	subscribeNS, stopNS      []int64
	lookups, hops            uint64
}

// runDeployRound deploys, feeds and stops one population of overlapping
// group subscriptions on a fresh system, and checks every subscription's
// records: one per source of its range, each counting 4 calls.
func runDeployRound(cfg *config, ranges []gen.Range, res *run) (*deployRound, *world, error) {
	tr := cfg.Trace
	w, err := newWorld(simConfig(cfg, nil), ctlSources, 1, 6, []string{pipeMethod})
	if err != nil {
		return nil, nil, err
	}
	r := &deployRound{subs: len(ranges)}
	l0, h0 := w.sys.Ring.Stats()
	tasks := make([]*peer.Task, 0, len(ranges))
	for i, rg := range ranges {
		src := deploySub(w.sources[rg.Lo:rg.Hi], i)
		sp := tr.begin("peer.Subscribe", noSpan, int64(i))
		t0 := time.Now()
		task, err := w.mgr.Subscribe(src)
		r.subscribeNS = append(r.subscribeNS, int64(time.Since(t0)))
		tr.end(sp)
		res.Attempted++
		if err != nil {
			res.fail(1, "subscribe %d: %v", i, err)
			continue
		}
		r.ops += task.OperatorsDeployed()
		if task.Reuse != nil {
			r.failedLookups += task.Reuse.FailedLookups
		}
		tasks = append(tasks, task)
	}
	l1, h1 := w.sys.Ring.Stats()
	r.lookups, r.hops = l1-l0, h1-h0
	for e := 0; e < ctlEventsPer; e++ {
		for s := range w.sources {
			if _, err := w.invoke(gen.Call{Source: s, Method: pipeMethod}); err != nil {
				return nil, nil, err
			}
		}
		w.sys.Step(time.Second)
	}
	for i, task := range tasks {
		sp := tr.begin("peer.Task.Stop", noSpan, int64(i))
		t0 := time.Now()
		task.Stop()
		r.stopNS = append(r.stopNS, int64(time.Since(t0)))
		tr.end(sp)
	}
	for i, task := range tasks {
		recs := task.Results().Drain()
		res.Attempted++
		ok := len(recs) == ranges[i].Hi-ranges[i].Lo
		for _, it := range recs {
			ok = ok && it.Tree.AttrOr("count", "") == strconv.Itoa(ctlEventsPer)
		}
		if !ok {
			res.fail(1, "subscription %d over %v: %d records", i, ranges[i], len(recs))
		}
	}
	return r, w, nil
}

// selectTask is one of phase B's per-call subscriptions and the driver's
// tally of what it must have delivered.
type selectTask struct {
	task      *peer.Task
	want, got int
}

// churnWorld is the phase-B system.
type churnWorld struct {
	*world
	tree    *peer.Task
	sels    []*selectTask
	byCall  [][]*selectTask // [source*len(methods)+method] -> subscriptions it hits
	tasks   []*peer.Task    // deployment order
	sup     *peer.Supervisor
	tally   tally
	calls   *gen.Calls
	methods map[string]int
}

func newChurnWorld(cfg *config, reg *telemetry.Registry, supervise bool) (*churnWorld, error) {
	pc := simConfig(cfg, reg)
	pc.Replay.Buffer = 4096
	pc.Replay.CheckpointInterval = 2 * time.Second
	w, err := newWorld(pc, ctlSources, 1, ctlWorkers, ctlMethods)
	if err != nil {
		return nil, err
	}
	// Managers fill the population up to 64 peers.
	var mgrs []*peer.Peer
	for i := 0; len(w.sys.Peers()) < cfg.scaled(ctlPeers, ctlSources+ctlWorkers+4); i++ {
		name := "m" + strconv.Itoa(i)
		p, err := w.sys.AddPeer(name)
		if err != nil {
			return nil, err
		}
		w.sys.Net.AddLoad(name, 1000)
		mgrs = append(mgrs, p)
	}
	c := &churnWorld{world: w, tally: tally{window: ctlChurnWindow}, methods: map[string]int{},
		byCall: make([][]*selectTask, ctlSources*len(ctlMethods)),
		calls:  gen.NewCalls(cfg.Seed, ctlSources, 1, ctlMethods, 0)}
	for i, m := range ctlMethods {
		c.methods[m] = i
	}
	spec := &algebra.GroupSpec{KeyAttr: "callee", Window: ctlChurnWindow.String()}
	if c.tree, err = mgrs[0].DeployPlan(groupPlan(w.sources, spec, mgrs[0].Name(), "rates")); err != nil {
		return nil, err
	}
	c.tasks = append(c.tasks, c.tree)
	for i := 1; i < cfg.scaled(ctlTasks, 8); i++ {
		src, m := (i*7)%ctlSources, (i*3)%len(ctlMethods)
		sub := fmt.Sprintf(`for $e in inCOM(<p>%s</p>) where $e.callMethod = "%s" return <hit id="{$e.callId}"/> by publish as channel "t%d"`,
			w.sources[src], ctlMethods[m], i)
		task, err := mgrs[i%len(mgrs)].Subscribe(sub)
		if err != nil {
			return nil, err
		}
		st := &selectTask{task: task}
		c.sels = append(c.sels, st)
		c.byCall[src*len(ctlMethods)+m] = append(c.byCall[src*len(ctlMethods)+m], st)
		c.tasks = append(c.tasks, task)
	}
	if supervise {
		c.sup = w.sys.StartGossipSupervisor(peer.GossipOptions{Seed: cfg.Seed})
	}
	return c, nil
}

// drive issues one step's worth of events and tallies what they owe.
func (c *churnWorld) drive(n int) error {
	for i := 0; i < n; i++ {
		call := c.calls.Next()
		at, err := c.invoke(call)
		if err != nil {
			return err
		}
		c.tally.add(at, "http://"+c.sources[call.Source], "")
		for _, st := range c.byCall[call.Source*len(ctlMethods)+c.methods[call.Method]] {
			st.want++
		}
	}
	return nil
}

// quiesce waits until the pipeline has drained: every owed hit popped
// (blocking, no sleep) and every event consumed by the tree's leaves,
// which sit on the source peers.
func (c *churnWorld) quiesce() error {
	for _, st := range c.sels {
		for st.got < st.want {
			it, ok := st.task.Results().Pop()
			if !ok || it.EOS() {
				return fmt.Errorf("result queue of %s closed", st.task.ID)
			}
			st.got++
		}
	}
	for {
		var leaves uint64
		for p, n := range c.tree.IngestByPeer() {
			if p[0] == 's' {
				leaves += n
			}
		}
		if leaves >= uint64(c.world.calls) {
			return nil
		}
		runtime.Gosched()
	}
}

func (c *churnWorld) stop() { stopAll(c.tasks) }

func runControl(cfg *config) (*run, error) {
	res := newRun()
	tr := cfg.Trace

	// Set-up time is the phase-B system: 64 peers, 200 tasks, supervisor.
	var c *churnWorld
	err := timeSetups(cfg, res, ctlSetupReps, func() { c.stop() }, func(reg *telemetry.Registry) (err error) {
		c, err = newChurnWorld(cfg, reg, true)
		return err
	})
	if err != nil {
		return nil, err
	}

	// --- Phase A: deploy ---
	ranges := gen.SourceRanges(cfg.Seed, cfg.scaled(ctlSubs, 12), ctlSources)
	var (
		subs, ops, failedLookups int
		subscribeNS, stopNS      []int64
		lookups, hops            uint64
		netBytes                 uint64
	)
	m0, t0 := cfg.Speed.markMem(), time.Now()
	meter := newRateMeter(cfg.Speed, func() float64 { return float64(subs) })
	for rounds := 0; rounds == 0 || time.Since(t0) < cfg.phase(ctlShareA); rounds++ {
		r, w, err := runDeployRound(cfg, ranges, res)
		if err != nil {
			return nil, err
		}
		subs, ops, failedLookups = subs+r.subs, ops+r.ops, failedLookups+r.failedLookups
		meter.mark() // one slice per round
		subscribeNS, stopNS = append(subscribeNS, r.subscribeNS...), append(stopNS, r.stopNS...)
		lookups, hops = lookups+r.lookups, hops+r.hops
		netBytes += w.sys.Net.Totals().Bytes
	}
	allocs, bytes := cfg.Speed.markMem().since(m0)
	items := float64(subs)
	rel := cfg.Speed.take()
	rate, _ := meter.rate()
	res.setRate(rate, rel, subs)
	p50 := res.setLatency(subscribeNS, rel)
	res.set("allocs_per_item", allocs/items, subs)
	res.set("alloc_bytes_per_item", bytes/items, subs)
	res.set("net_bytes_per_item", float64(netBytes)/items, subs)
	res.set("control.ops_per_sub", float64(ops)/items, subs)
	res.set("reuse.failed_lookups", float64(failedLookups), subs)
	res.set("peer.subscribe_us", p50/1e3, len(subscribeNS))
	res.set("peer.stop_us", percentile(stopNS, 0.50)/1e3, len(stopNS))
	if lookups > 0 {
		res.set("dht.hops_per_lookup", float64(hops)/float64(lookups), int(lookups))
	}

	// --- Phase B: churn ---
	var (
		schedule                    = gen.NewCrashSchedule(cfg.Seed)
		stepNS, repairNS, quiesceNS []int64
		detectVirt                  []float64
		stepStart                   time.Time
		crashedAt                   = map[string]time.Duration{} // by the schedule
		lastDown                    = map[string]time.Duration{} // worker last seen down, by anyone's doing
		recoverAt                   = map[string]int{}
		falseDeaths                 int
	)
	// Registered after the supervisor's own callback: repair is complete
	// when this one runs.
	c.sup.Detector().OnDeath(func(p string, at time.Duration) {
		repairNS = append(repairNS, int64(time.Since(stepStart)))
		if t, ok := crashedAt[p]; ok && at-t <= ctlDeathWindow {
			detectVirt = append(detectVirt, (at - t).Seconds())
		}
		// A death is false when the peer was not down shortly before it.
		// Quorum confirmation may arrive just after the schedule brought
		// the peer back (late, not false), and the supervisor's repair
		// then takes the peer down itself, so later deaths of it are owed
		// too; lastDown sees both.
		if t, ok := lastDown[p]; !ok || at-t > ctlDeathWindow {
			falseDeaths++
			res.fail(1, "%s declared dead at %v but last seen down at %v (ever: %v)", p, at, t, ok)
		}
	})
	net0, hand0, virt0 := c.sys.Net.Totals(), c.sys.Ring.Handoffs(), c.sys.Net.Clock().Now()
	steps, t0 := 0, time.Now()
	for ; steps == 0 || time.Since(t0) < cfg.phase(1-ctlShareA); steps++ {
		if err := c.drive(ctlEventsStep); err != nil {
			return nil, err
		}
		sp := tr.begin("driver.quiesce", noSpan, -1)
		q0 := time.Now()
		if err := c.quiesce(); err != nil {
			return nil, err
		}
		quiesceNS = append(quiesceNS, int64(time.Since(q0)))
		tr.end(sp)

		for _, wk := range c.workers {
			if !c.sys.Net.Alive(wk) {
				lastDown[wk] = c.sys.Net.Clock().Now()
			}
		}
		repairs := len(repairNS)
		sp = tr.begin("peer.Step", noSpan, int64(steps))
		stepStart = time.Now()
		c.sys.Step(time.Second)
		if len(repairNS) == repairs {
			stepNS = append(stepNS, int64(time.Since(stepStart)))
		}
		tr.end(sp)

		for p, at := range recoverAt {
			if steps >= at {
				c.sys.Net.Recover(p) //nolint:errcheck // a peer of this system
				delete(recoverAt, p)
			}
		}
		if schedule.CrashAt(steps) && len(recoverAt) == 0 {
			if ins := aggtree.Interiors(c.tree.Plan); len(ins) > 0 && c.sys.Net.Alive(ins[0].Peer) {
				victim := ins[0].Peer
				c.sys.Net.Crash(victim) //nolint:errcheck // a peer of this system
				crashedAt[victim] = c.sys.Net.Clock().Now()
				recoverAt[victim] = steps + schedule.Down
			}
		}
	}
	elapsedB := time.Since(t0)
	virt := c.sys.Net.Clock().Now() - virt0
	// Heal, let detection and repair finish, then drain.
	for _, wk := range c.workers { // the schedule's victim, and any the supervisor took down on a late death
		c.sys.Net.Recover(wk) //nolint:errcheck // a peer of this system
	}
	for i := 0; i < 12; i++ {
		c.sys.Step(time.Second)
	}
	if err := c.quiesce(); err != nil {
		return nil, err
	}
	var ringLen int
	for _, ref := range c.tree.StreamRefs() {
		if ch, ok := c.sys.Channel(ref); ok {
			ringLen += ch.ReplayLen()
		}
	}
	c.stop()

	// Oracle: what the sinks received equals what an undisturbed run
	// delivers — every hit exactly once (quiesce popped exactly the owed
	// number; nothing may be left over) and every group record equal to
	// the driver's tally — and gossip declared only crashed peers dead.
	for _, st := range c.sels {
		res.Attempted += int64(st.want)
		if extra := len(st.task.Results().Drain()); extra > 0 {
			res.fail(int64(extra), "%s delivered %d duplicate hits", st.task.ID, extra)
		}
	}
	c.tally.check("count", c.tree.Results().Drain(), res)

	net1 := c.sys.Net.Totals()
	res.set("control.virt_s_per_s", virt.Seconds()/elapsedB.Seconds(), steps)
	res.set("control.repair_p50_ms", percentile(repairNS, 0.5)/1e6, len(repairNS))
	res.set("peer.step_us", percentile(stepNS, 0.5)/1e3, len(stepNS))
	res.set("peer.step_us_per_task", percentile(stepNS, 0.5)/1e3/float64(len(c.tasks)), len(stepNS))
	res.set("peer.detect_virt_s", medianFloat(detectVirt), len(detectVirt))
	res.set("peer.replayed_items", float64(c.sys.ReplayedItems()), steps)
	res.set("peer.false_deaths", float64(falseDeaths), len(repairNS))
	res.set("dht.handoffs", float64(c.sys.Ring.Handoffs()-hand0), steps)
	res.set("stream.replay_ring_len", float64(ringLen), 1)
	res.set("driver.quiesce_ms", percentile(quiesceNS, 0.5)/1e6, len(quiesceNS))
	res.set("simnet.dropped", float64(net1.Dropped-net0.Dropped), steps)
	return res, nil
}

// replayControl times the deploy-time layers on phase A's subscriptions
// and the Step-time layers on a phase-B system.
func replayControl(cfg *config, out *run) error {
	sources := make([]string, ctlSources)
	for i := range sources {
		sources[i] = "s" + strconv.Itoa(i)
	}
	ranges := gen.SourceRanges(cfg.Seed, 64, ctlSources)
	texts := make([]string, len(ranges))
	parsed := make([]*p2pml.Subscription, len(ranges))
	for i, rg := range ranges {
		texts[i] = deploySub(sources[rg.Lo:rg.Hi], i)
		sub, err := p2pml.Parse(texts[i])
		if err != nil {
			return err
		}
		parsed[i] = sub
	}
	setTime(cfg, out, "p2pml.parse_us", 1e3, func(i int) { p2pml.Parse(texts[i%len(texts)]) })           //nolint:errcheck // parsed above
	setTime(cfg, out, "algebra.compile_us", 1e3, func(i int) { algebra.Compile(parsed[i%len(parsed)]) }) //nolint:errcheck // compiled by Subscribe in phase A

	// The reuse pass against a live shared tree: the first range (all
	// sources) is deployed, the others are matched against it.
	w, err := newWorld(simConfig(cfg, nil), ctlSources, 1, 6, []string{pipeMethod})
	if err != nil {
		return err
	}
	seed, err := w.mgr.Subscribe(texts[0])
	if err != nil {
		return err
	}
	plans := make([]*algebra.Node, len(parsed))
	for i, sub := range parsed {
		plan, err := algebra.Compile(sub)
		if err != nil {
			return err
		}
		plans[i] = algebra.Optimize(plan, algebra.DefaultOptions("mgr"))
	}
	ro := reuse.Options{From: "mgr", Consumer: "mgr", Choose: reuse.PreferClose(w.sys.Net.Distance, w.sys.Net.Load)}
	setTime(cfg, out, "reuse.pass_us", 1e3, func(i int) { ro.Apply(plans[i%len(plans)], w.sys.DB) }) //nolint:errcheck // a failed pass shows in reuse.failed_lookups
	seed.Stop()

	// The stream-definition database and the ring under it.
	ring := dht.New()
	ring.SetReplication(2)
	for i := 0; i < ctlPeers; i++ {
		if err := ring.Join("peer-" + strconv.Itoa(i)); err != nil {
			return err
		}
	}
	db := kadop.New(ring)
	def := func(i int) *kadop.StreamDef {
		p := "peer-" + strconv.Itoa(i%ctlPeers)
		return &kadop.StreamDef{Ref: stream.Ref{PeerID: p, StreamID: "s" + strconv.Itoa(i)},
			Operator: "inCOM", Signature: "inCOM(" + p + ")#" + strconv.Itoa(i)}
	}
	setTime(cfg, out, "kadop.publish_us", 1e3, func(i int) { db.Publish(def(i)) }) //nolint:errcheck // ring has members
	setTime(cfg, out, "kadop.find_us", 1e3, func(i int) {
		db.FindAlerters("peer-"+strconv.Itoa(i%ctlPeers), "peer-"+strconv.Itoa((i*13)%ctlPeers), "inCOM") //nolint:errcheck // ring has members
	})
	key := func(i int) string { return "ckpt|task-" + strconv.Itoa(i%80) + "|op-" + strconv.Itoa(i%3) }
	setTime(cfg, out, "dht.put_us", 1e3, func(i int) { ring.Set(key(i), "v") })      //nolint:errcheck // ring has members
	setTime(cfg, out, "dht.get_us", 1e3, func(i int) { ring.Get("peer-0", key(i)) }) //nolint:errcheck // ring has members
	// The read cache only exists on a bounded-load ring.
	bounded := dht.New()
	bounded.SetReplication(2)
	bounded.SetVirtual(32)
	bounded.SetLoadBound(1.2)
	bounded.EnableReadCache()
	for i := 0; i < 16; i++ {
		if err := bounded.Join("m" + strconv.Itoa(i)); err != nil {
			return err
		}
	}
	for i := 0; i < 240; i++ {
		if err := bounded.Set(key(i), "v"); err != nil {
			return err
		}
	}
	gets := 0
	timeOp(cfg, "dht.bounded_get", func(i int) {
		bounded.Get("m0", key(i)) //nolint:errcheck // keys set above
		gets++
	})
	out.set("dht.cache_hit_frac", float64(bounded.ReadCacheHits())/float64(gets), gets)

	// Step-time layers on a phase-B system without a supervisor, so the
	// replay decides when peers die.
	c, err := newChurnWorld(cfg, nil, false)
	if err != nil {
		return err
	}
	defer c.stop()
	for i := 0; i < 4; i++ {
		if err := c.drive(ctlEventsStep); err != nil {
			return err
		}
		if err := c.quiesce(); err != nil {
			return err
		}
		c.sys.Step(time.Second)
	}
	setTime(cfg, out, "peer.checkpoint_ms", 1e6, func(int) { c.sys.CheckpointNow() })
	victim := func() string { return aggtree.Interiors(c.tree.Plan)[0].Peer }
	var failNS, rejoinNS []int64
	id := cfg.Trace.begin("replay.peer.failpeer+rejoin", noSpan, -1)
	for i := 0; i < cfg.scaled(20, 3); i++ {
		v := victim()
		t0 := time.Now()
		c.sys.FailPeer(v, c.sys.Net.Clock().Now())
		t1 := time.Now()
		c.sys.RejoinPeer(v)
		failNS, rejoinNS = append(failNS, int64(t1.Sub(t0))), append(rejoinNS, int64(time.Since(t1)))
	}
	cfg.Trace.end(id)
	out.set("peer.failpeer_ms", percentile(failNS, 0.5)/1e6, len(failNS))
	out.set("peer.rejoin_ms", percentile(rejoinNS, 0.5)/1e6, len(rejoinNS))

	// One gossip protocol period over the full membership.
	g, err := newWorld(peer.DefaultConfig(), ctlSources, 1, cfg.scaled(ctlPeers, 24)-ctlSources-2, nil)
	if err != nil {
		return err
	}
	det := g.sys.StartGossipDetector(peer.GossipOptions{Seed: cfg.Seed})
	setTime(cfg, out, "peer.gossip_tick_us", 1e3, func(int) {
		g.sys.Net.Clock().Advance(time.Second)
		det.Tick()
	})

	// Publishing into a channel with retention on.
	ch := stream.NewChannel("s0", "replay")
	ch.EnableReplay(4096)
	alerts := replayAlerts(cfg.Seed, ctlSources, 1, ctlMethods, 256)
	setTime(cfg, out, "stream.replay_add_ns", 1, func(i int) { ch.Publish(alerts[i%len(alerts)]) })
	return nil
}
