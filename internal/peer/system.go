// Package peer implements P2PM's control plane: the System (a network of
// monitor peers plus the monitored substrates), the per-peer Subscription
// Manager with its subscription database, and the deployment machinery
// that turns an optimized algebraic plan into running operators connected
// by channels (Section 3).
package peer

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2pm/internal/alerters"
	"p2pm/internal/algebra"
	"p2pm/internal/dht"
	"p2pm/internal/kadop"
	"p2pm/internal/operators"
	"p2pm/internal/rss"
	"p2pm/internal/simnet"
	"p2pm/internal/soap"
	"p2pm/internal/stream"
	"p2pm/internal/telemetry"
	"p2pm/internal/xmltree"
)

// System is one P2PM deployment: the monitoring P2P network, the
// monitored substrates (Web services fabric, feeds, repositories), the
// KadoP stream-definition database over its DHT, and the channel
// registry stitching deployed plan fragments together.
type System struct {
	// cfg is the grouped configuration, fixed at construction.
	cfg Config
	// clock is the System's time: Step advances it, and every timestamp
	// the runtime takes reads it. It is the network's own clock, so a
	// harness that advances the simulated world's time moves this one.
	clock *simnet.Clock

	Net    *simnet.Network
	Fabric *soap.Fabric
	Ring   *dht.Ring
	DB     *kadop.DB

	// loops holds the one event loop per peer (System.executor), taps the
	// one WS alerter tap per monitored endpoint direction (System.tap);
	// idle counts the loops' pending work (System.Quiesce).
	loopMu sync.Mutex
	loops  map[string]*operators.Executor
	taps   map[tapKey]*alerters.Tap
	idle   *operators.Loops

	// admitMu serializes AddPeer: two concurrent admissions of one name
	// must resolve to one node, one ring member and one Peer.
	admitMu sync.Mutex

	mu       sync.Mutex
	peers    map[string]*Peer
	channels map[stream.Ref]*stream.Channel
	sidSeq   map[string]int
	taskSeq  int
	// detector is the System's one gossip failure detector (nil until
	// StartGossipDetector): the one membership view Step ticks and joins
	// and leaves go through.
	detector *GossipDetector
	// edges indexes the live consumer edges of every channel by its ref
	// (edge.go): an edge enters when it attaches and leaves when it is
	// re-bound elsewhere, closed with its task, severed or — a replica
	// forwarder — ended by its origin. Bounded by the subscriptions that
	// are running, not by the ones there ever were.
	edges map[stream.Ref][]*edge
	// aggHosts, when set, restricts DHT-routed aggregation-tree interior
	// placement to matching peers (e.g. a worker pool, keeping merge
	// nodes off monitored sources). nil admits every ring member.
	aggHosts func(name string) bool
	// quarantined removes peers from aggregation-tree interior placement
	// on top of the aggHosts filter (Tuning.QuarantineAggHost — the
	// control action a flap-monitoring query triggers).
	quarantined map[string]bool
	// stale marks channels whose producer migrated away during failover:
	// the channel object survives (and its host may come back), but no
	// operator feeds it anymore, so it must never be chosen as a
	// provider again.
	stale map[stream.Ref]bool
	// onStep hooks run at the end of every Step (after detectors, sweeps
	// and checkpoints) — the seam per-Step adaptive controllers hang off.
	onStep []func(now time.Duration)

	lastCkpt time.Duration // virtual time of the last checkpoint sweep
	replayed atomic.Uint64 // items retransmitted from replay buffers
	edgeSeq  atomic.Uint64 // edge ids, in creation order
	splitSeq int           // fresh ids for re-chunked interiors
	splitLog []SplitEvent  // audit log of completed splits

	// tele and teleSrv are set once at construction when
	// Config.Telemetry opts in (docs/TELEMETRY.md); nil otherwise.
	tele    *sysMetrics
	teleSrv *telemetry.Server
}

// NewSystem validates the configuration and builds an empty system.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalize()
	nw := simnet.New(simnet.DefaultOptions())
	ring := dht.New()
	if cfg.DHT.Replication > 1 {
		ring.SetReplication(cfg.DHT.Replication)
	}
	if cfg.DHT.VirtualNodes > 1 {
		ring.SetVirtual(cfg.DHT.VirtualNodes)
	}
	if cfg.DHT.LoadBound > 0 {
		ring.SetLoadBound(cfg.DHT.LoadBound)
		ring.EnableReadCache()
	}
	s := &System{
		cfg:         cfg,
		clock:       nw.Clock(),
		Net:         nw,
		Fabric:      soap.NewFabric(nw),
		Ring:        ring,
		DB:          kadop.New(ring),
		peers:       make(map[string]*Peer),
		channels:    make(map[stream.Ref]*stream.Channel),
		edges:       make(map[stream.Ref][]*edge),
		stale:       make(map[stream.Ref]bool),
		sidSeq:      make(map[string]int),
		quarantined: make(map[string]bool),
		loops:       make(map[string]*operators.Executor),
		taps:        make(map[tapKey]*alerters.Tap),
		idle:        operators.NewLoops(),
	}
	if cfg.Agg.SplitRatio > 0 {
		s.startRechunkController()
	}
	if err := s.instrumentTelemetry(); err != nil {
		return nil, fmt.Errorf("peer: telemetry endpoint: %w", err)
	}
	return s, nil
}

// MustSystem is NewSystem that panics on a bad configuration (setup
// code and tests).
func MustSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// AddPeer registers a peer: it gets a network node, a SOAP endpoint and a
// position in the DHT ring backing the stream-definition database.
// Adding an existing name returns the existing peer.
func (s *System) AddPeer(name string) (*Peer, error) {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	s.mu.Lock()
	if p, ok := s.peers[name]; ok {
		s.mu.Unlock()
		return p, nil
	}
	s.mu.Unlock()
	s.Net.AddNode(name)
	if err := s.Ring.Join(name); err != nil {
		return nil, fmt.Errorf("peer: %s cannot join the DHT: %w", name, err)
	}
	p := &Peer{
		sys:      s,
		name:     name,
		endpoint: s.Fabric.Endpoint(name),
		tasks:    make(map[string]*Task),
		feeds:    make(map[string]func() (*rss.Feed, error)),
		pages:    make(map[string]func() (*xmltree.Node, error)),
		incoming: make(map[string]*stream.Queue),
	}
	s.mu.Lock()
	s.peers[name] = p
	s.mu.Unlock()
	return p, nil
}

// JoinPeer admits a peer at runtime through the membership protocol, no
// pre-run registration anywhere: the peer's network node comes up, it
// takes its positions on the stream-definition DHT ring (the keys it
// now owns hand off to it), and the failure detector learns of it
// through the gossip join protocol (seed contact, bootstrap,
// piggybacked dissemination with incarnation numbers). The peer is
// immediately eligible for operator placement and failover targeting.
// A departed peer re-joins the same way: it re-enters the ring, and its
// gossip incarnation is bumped above every death rumor so the stale
// declarations cannot kill it again. JoinPeer does not start a stopped
// node: restarting the process is its host's action, before the join.
func (s *System) JoinPeer(name, seed string) (*Peer, error) {
	if name == seed {
		return nil, fmt.Errorf("peer: %s cannot seed its own join", name)
	}
	if s.Peer(seed) == nil {
		return nil, fmt.Errorf("peer: join seed %q is not a member", seed)
	}
	// The seed contact: the one check that the seed answers.
	if !s.Net.Alive(seed) {
		return nil, fmt.Errorf("peer: join seed %q is down", seed)
	}
	g := s.gossipDetector()
	// Validate the join against the detector BEFORE touching any state:
	// a rejected join (unknown seed view, joiner partitioned from the
	// seed) must not leave a half-admitted peer owning DHT keys that no
	// detector watches.
	if g != nil {
		if err := g.joinPrecheck(name, seed); err != nil {
			return nil, err
		}
	}
	p, err := s.AddPeer(name)
	if err != nil {
		return nil, err
	}
	// AddPeer put a new peer on the ring; a returning one re-enters here.
	s.Ring.Join(name) //nolint:errcheck // already-joined is fine
	if g == nil {
		// No detector to account the seed contact and bootstrap transfer
		// (Join does): the join is one control message on the
		// joiner→seed link.
		s.Net.CountTransfer(name, seed, ctrlMsgBytes)
	} else if err := g.Join(name, seed); err != nil {
		// Unreachable given the precheck above (no state changed between
		// the two under this harness's single-threaded membership
		// control); surface it rather than hide it.
		return p, err
	}
	// The ring just changed: aggregation-tree interiors whose DHT-derived
	// host moved re-parent onto the new owner (children and consumers
	// re-bind; with replay on the move is exactly-once through the
	// checkpoint+cursor machinery).
	s.RebalanceAggTrees()
	return p, nil
}

// MustAddPeer is AddPeer that panics on error (setup code and tests).
func (s *System) MustAddPeer(name string) *Peer {
	p, err := s.AddPeer(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Peer returns a registered peer, or nil.
func (s *System) Peer(name string) *Peer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peers[name]
}

// Peers returns all peer names.
func (s *System) Peers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.peers))
	for n := range s.peers {
		names = append(names, n)
	}
	return names
}

// Config returns the configuration the System was built with, its DHT
// replication read from the ring, which owns that number
// (Tuning.SetDHTReplication moves it).
func (s *System) Config() Config {
	cfg := s.cfg
	cfg.DHT.Replication = s.Ring.Replication()
	return cfg
}

// OnStep registers a hook run at the end of every Step, after detector
// ticks, anti-entropy sweeps and the checkpoint cadence — where per-Step
// adaptive controllers observe and actuate.
func (s *System) OnStep(f func(now time.Duration)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onStep = append(s.onStep, f)
}

// SetAggHosts restricts DHT-routed aggregation-tree interior placement
// to peers the filter accepts (nil lifts the restriction). Workloads use
// it to keep merge operators on a worker pool instead of landing them on
// monitored sources or the manager.
func (s *System) SetAggHosts(filter func(name string) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.aggHosts = filter
}

// newAggPlacer returns a stateful bounded placer for aggregation-tree
// interiors: each key offered lands on the first eligible ring
// successor of its hash that is below the running per-host cap
// ⌈placed/eligible⌉ — consistent hashing with bounded loads, the PR 4
// checkpoint-spreading guarantee applied to operator placement, so no
// worker stacks more than its fair share of a tree's merge fan-in.
// Offering the keys in sorted order makes the placement a deterministic
// function of ring membership: repair and membership rebalancing
// re-derive identical hosts by replaying the walk (AggPlacements).
// Every candidate is a ring member, which is what the runtime believes
// alive (System.member). Empty when no member is eligible.
func (s *System) newAggPlacer() func(key string) string {
	used := map[string]int{}
	placed := 0
	return func(key string) string {
		s.mu.Lock()
		filter := s.aggHosts
		quarantined := make(map[string]bool, len(s.quarantined))
		for name := range s.quarantined {
			quarantined[name] = true
		}
		s.mu.Unlock()
		eligible := func(name string) bool {
			return !quarantined[name] && (filter == nil || filter(name))
		}
		pool := 0
		for _, m := range s.Ring.Nodes() {
			if eligible(m) {
				pool++
			}
		}
		if pool == 0 {
			return ""
		}
		placed++
		cap := (placed + pool - 1) / pool
		first := ""
		for _, cand := range s.Ring.Successors(key, s.Ring.Size()) {
			if !eligible(cand) {
				continue
			}
			if first == "" {
				first = cand
			}
			if used[cand] < cap {
				used[cand]++
				return cand
			}
		}
		if first != "" {
			used[first]++
		}
		return first
	}
}

// AggPlacements re-derives the bounded DHT placement of every interior
// routing key in a plan against the *current* ring: keys in sorted
// (= construction) order through a fresh bounded placer. This is the
// placement invariant — where each interior belongs right now — that
// deployment establishes, failover restores and membership changes
// rebalance toward.
func (s *System) AggPlacements(plan *algebra.Node) map[string]string {
	var keys []string
	plan.Walk(func(n *algebra.Node) {
		if n.AggKey != "" {
			keys = append(keys, n.AggKey)
		}
	})
	sort.Strings(keys)
	place := s.newAggPlacer()
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		out[k] = place(k)
	}
	return out
}

// nextStreamID allocates a fresh stream identifier on a peer.
func (s *System) nextStreamID(peer string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sidSeq[peer]++
	return fmt.Sprintf("s%d", s.sidSeq[peer])
}

func (s *System) nextTaskID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.taskSeq++
	return fmt.Sprintf("task-%d", s.taskSeq)
}

// allocChannel creates and registers a task-owned channel at host,
// charging the host's load — the shared bookkeeping of every deployment
// and re-deployment path.
func (s *System) allocChannel(t *Task, host, streamID string) *stream.Channel {
	ch := stream.NewChannel(host, streamID)
	s.registerChannel(ch)
	t.channels = append(t.channels, ch)
	s.charge(host)
	return ch
}

// charge counts one more channel allocated on a peer. The count never
// goes down: it is the peer's placement history, not what it runs now.
func (s *System) charge(name string) {
	if p := s.Peer(name); p != nil {
		p.channels.Add(1)
	}
}

// load is what placement weighs a peer by: the channels allocated on it
// plus the load the simulated world imposes on its node.
func (s *System) load(name string) int {
	n := s.Net.Load(name)
	if p := s.Peer(name); p != nil {
		n += int(p.channels.Load())
	}
	return n
}

// registerChannel enrolls a channel in the system-wide registry so
// ChannelIn nodes and external subscribers can find it, enabling the
// configured replay retention before the first publication.
func (s *System) registerChannel(ch *stream.Channel) {
	if buf := s.cfg.Replay.Buffer; buf > 0 {
		ch.EnableReplay(buf)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.channels[ch.Ref()] = ch
}

// replayOn reports whether the lossless-failover layer is enabled.
func (s *System) replayOn() bool { return s.cfg.Replay.Buffer > 0 }

// ReplayedItems returns the total number of items retransmitted from
// channel replay buffers (re-bind resumes and anti-entropy repairs).
func (s *System) ReplayedItems() uint64 { return s.replayed.Load() }

// Channel resolves a registered channel by reference.
func (s *System) Channel(ref stream.Ref) (*stream.Channel, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch, ok := s.channels[ref]
	return ch, ok
}

// SubscribeChannel subscribes consumerPeer to a registered channel,
// routing deliveries over the simulated network (bytes counted, latency
// applied). This is the paper's "subscribing to a channel".
func (s *System) SubscribeChannel(ref stream.Ref, consumerPeer string) (*stream.Subscription, error) {
	ch, ok := s.Channel(ref)
	if !ok {
		return nil, fmt.Errorf("peer: unknown channel %s", ref)
	}
	// An outside reader's edge belongs to no task and is not indexed: the
	// caller holds the subscription and ends it.
	e := s.newEdge(nil, consumerPeer)
	e.attach(ch, 0)
	return e.sub, nil
}

// AnnounceReplica makes consumerPeer a re-publisher of a channel: it
// subscribes to the original stream, forwards every item into a new
// channel of its own, and records the replica in the stream-definition
// database — Section 5's "p′ may choose to publish this information to
// let it be known that he can also provide (p, s)". Later subscriptions
// whose optimizer prefers a close, unloaded provider will consume from
// the replica instead of the original.
func (s *System) AnnounceReplica(orig stream.Ref, consumerPeer string) (stream.Ref, error) {
	ch, ok := s.Channel(orig)
	if !ok {
		return stream.Ref{}, fmt.Errorf("peer: unknown channel %s", orig)
	}
	rep := stream.NewChannel(consumerPeer, s.nextStreamID(consumerPeer))
	if err := s.DB.PublishReplica(orig, rep.Ref()); err != nil {
		return stream.Ref{}, err
	}
	s.registerChannel(rep)
	s.charge(consumerPeer)
	// The forwarder is an edge whose sink publishes into the replica,
	// synchronously from inside the original's delivery fan-out: an item
	// is re-published the moment the original publishes it, so producers
	// tearing down (eos) cannot race ahead of buffered data. Transport to
	// the replica host still pays the simulated link (accounting, latency,
	// faults); items lost on a faulty link never reach the replica's
	// subscribers — unless the replay layer is on. Then the replica
	// preserves the original's sequence numbering, so a consumer cursor
	// positioned on the original stream stays valid when failover re-binds
	// it to the replica (and vice versa), and the forwarder's own cursor
	// keeps the mirror gap-free: what the link lost is refilled by the
	// sweep before anything later is mirrored.
	e := s.newEdge(nil, consumerPeer)
	e.rep, e.sink = rep, rep.Publish
	if s.replayOn() {
		e.sink = rep.PublishPreserved
		e.cur = stream.NewCursor(0, e.sink)
	}
	e.attach(ch, 0)
	return rep.Ref(), nil
}

// RefreshStreamStats records current item and volume counters for every
// registered channel into the stream-definition database (the Stats part
// of the paper's descriptors).
func (s *System) RefreshStreamStats() error {
	s.mu.Lock()
	chans := make([]*stream.Channel, 0, len(s.channels))
	for _, ch := range s.channels {
		chans = append(chans, ch)
	}
	s.mu.Unlock()
	for _, ch := range chans {
		items := ch.Published()
		stats := map[string]string{
			"items":  fmt.Sprintf("%d", items),
			"volume": fmt.Sprintf("%d", ch.Volume()),
		}
		if items > 0 {
			stats["avgItemSize"] = fmt.Sprintf("%d", ch.Volume()/items)
		}
		if err := s.DB.UpdateStats(ch.Ref(), stats); err != nil {
			return err
		}
	}
	return nil
}

// Step advances the virtual clock by d and ticks the failure
// detector. Churn harnesses drive the system with repeated small
// Steps; detection latency is quantized to the step size, so use steps
// no coarser than the heartbeat interval when measuring it. With the
// replay layer on, each Step also runs the anti-entropy sweep (repairing
// link-fault losses from the upstream replay buffers) once the loops have
// processed what the tick published — an item still on its way is not
// lost — waits for the peers' loops to process what it re-sent and, every
// CheckpointInterval, runs the operator checkpoint sweep; the checkpoints
// and the OnStep hooks see processed state.
func (s *System) Step(d time.Duration) {
	if s.tele != nil {
		defer s.observeStep(time.Now())
	}
	s.clock.Advance(d)
	if g := s.gossipDetector(); g != nil {
		g.Tick()
	}
	if s.replayOn() {
		s.Quiesce()
		s.syncEdges()
		s.Quiesce()
	}
	if interval := s.cfg.Replay.CheckpointInterval; interval > 0 {
		now := s.clock.Now()
		s.mu.Lock()
		due := now-s.lastCkpt >= interval
		if due {
			s.lastCkpt = now
		}
		s.mu.Unlock()
		if due {
			s.CheckpointNow()
		}
	}
	now := s.clock.Now()
	s.mu.Lock()
	hooks := append([]func(time.Duration){}, s.onStep...)
	s.mu.Unlock()
	for _, f := range hooks {
		f(now)
	}
}

// Quiesce blocks until every peer's event loop is idle: no operator or
// tap step queued or running anywhere in the System. It is exact — a
// hand-off between peers wakes the target's loop inside the sender's
// step — and has no timeout. Harnesses call it between driven events and
// before they inspect results; never call it from a step of a peer's loop
// (an operator, a sink, a tap), which would wait for its own end.
func (s *System) Quiesce() { s.idle.Quiesce() }

// Poll drives every polling alerter (RSS, Web page) across all running
// tasks once, returning the number of alerts produced. Simulation
// harnesses call it between workload steps.
func (s *System) Poll() (int, error) {
	s.mu.Lock()
	peers := make([]*Peer, 0, len(s.peers))
	for _, p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	total := 0
	var firstErr error
	for _, p := range peers {
		n, err := p.pollTasks()
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}
