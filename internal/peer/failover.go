package peer

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/operators"
	"p2pm/internal/reuse"
	"p2pm/internal/stream"
)

// ctrlMsgBytes is the accounted size of one failover control message
// (re-deployment order, re-subscription): the repair path shows up in
// the traffic counters like everything else.
const ctrlMsgBytes = 256

// FailoverEvent records one repair action taken when a peer died.
type FailoverEvent struct {
	TaskID   string
	Operator string // label of the affected operator (or consumed channel)
	From     string // the dead host
	To       string // the new host; empty when the loss is unrepairable
	// ViaReplica is true when an announced replica (Section 5) provided
	// the failover path.
	ViaReplica bool
	// At is the virtual time of the repair (= detection time: repair is
	// immediate once the detector fires).
	At time.Duration
}

// Repaired reports whether the event found a new host.
func (e FailoverEvent) Repaired() bool { return e.To != "" }

// markStale records that a channel lost its producer (the operator
// migrated elsewhere). Staleness propagates through replica forwarders:
// a replica of a stale stream forwards nothing, so it is stale too —
// except the channel a re-deployed operator just adopted as its new
// output.
func (s *System) markStale(ref, except stream.Ref) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.markStaleLocked(ref, except)
}

func (s *System) markStaleLocked(ref, except stream.Ref) {
	if ref == except || s.stale[ref] {
		return
	}
	s.stale[ref] = true
	for _, e := range s.edges[ref] {
		if e.rep != nil {
			s.markStaleLocked(e.rep.Ref(), except)
		}
	}
}

// isStale reports whether a channel lost its producer to a migration.
func (s *System) isStale(ref stream.Ref) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stale[ref]
}

// member is the runtime's one liveness belief: whether name is on the
// DHT ring. FailPeer and LeavePeer take a peer off it, RejoinPeer and
// JoinPeer put it back, and the supervisor's quorum drives those calls.
// Placement and repair decide from it, and nothing in this package
// crashes or recovers a node: a process stopping or restarting is the
// harness's action. The reads of the simulated world that remain
// (docs/DETECTOR.md "What the runtime reads of the world") are of two
// kinds. Whether a peer's own process runs: the gossip round and the
// suspicion sweep (gossip.go), checkpointTask and LeavePeer. Whether a
// message would arrive: edge.deliverable, JoinPeer's seed contact,
// joinPrecheck's partition check and splitInterior's live capture.
func (s *System) member(name string) bool { return s.Ring.Member(name) }

// usable reports whether a channel is a viable provider: host on the
// ring and producer still attached.
func (s *System) usable(ref stream.Ref) bool {
	return s.member(ref.PeerID) && !s.isStale(ref)
}

// aliveOnly wraps a reuse chooser so it never selects a provider hosted
// on a peer off the ring, or one whose producer migrated away, when a
// viable alternative exists.
func aliveOnly(s *System, inner reuse.Chooser) reuse.Chooser {
	return func(consumer string, original stream.Ref, replicas []stream.Ref) stream.Ref {
		var ok []stream.Ref
		for _, r := range replicas {
			if s.usable(r) {
				ok = append(ok, r)
			}
		}
		if !s.usable(original) && len(ok) > 0 {
			return inner(consumer, ok[0], ok[1:])
		}
		return inner(consumer, original, ok)
	}
}

// Supervisor couples the gossip failure detector with self-healing: a
// quorum-confirmed death triggers FailPeer (take the peer off the ring,
// re-replicate DHT keys, migrate the dead peer's operators), a recovery
// rejoins the peer to the ring. It acts on beliefs only: a death
// confirmed in error moves work off a peer that still runs, and never
// stops it.
type Supervisor struct {
	det *GossipDetector

	mu     sync.Mutex
	events []FailoverEvent
	deaths []string
}

// StartGossipSupervisor wires self-healing to a SWIM-style gossip
// failure detector spanning every registered peer. Detection is hosted
// everywhere and the supervisor acts on the quorum-confirmed membership
// view, so it keeps working when any individual peer crashes or is
// partitioned away. Tick it via System.Step.
func (s *System) StartGossipSupervisor(opts GossipOptions) *Supervisor {
	if opts.Seed == 0 {
		opts.Seed = s.cfg.Seed
	}
	sup := &Supervisor{det: s.StartGossipDetector(opts)}
	sup.det.OnDeath(func(peer string, at time.Duration) {
		evs := s.FailPeer(peer, at)
		sup.mu.Lock()
		sup.deaths = append(sup.deaths, peer)
		sup.events = append(sup.events, evs...)
		sup.mu.Unlock()
	})
	sup.det.OnRecover(func(peer string, at time.Duration) {
		evs := s.RejoinPeer(peer)
		sup.mu.Lock()
		sup.events = append(sup.events, evs...)
		sup.mu.Unlock()
	})
	return sup
}

// Detector exposes the underlying failure detector (death/recovery
// callbacks, the confirmed-dead set, per-view introspection).
func (sup *Supervisor) Detector() *GossipDetector { return sup.det }

// Events returns all failover actions taken so far.
func (sup *Supervisor) Events() []FailoverEvent {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	return append([]FailoverEvent(nil), sup.events...)
}

// Deaths returns the peers declared dead so far, in detection order.
func (sup *Supervisor) Deaths() []string {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	return append([]string(nil), sup.deaths...)
}

// FailPeer processes a confirmed-dead peer: the DHT drops it and
// re-replicates the keys it held, and every live task with operators or
// consumed channels on it is repaired — operators are re-deployed onto
// ring members (preferring hosts that announced a replica of the
// affected stream) and consumers are re-bound end-to-end. It returns the
// repair actions taken. FailPeer changes the runtime's belief, not the
// world: it does not stop the peer's node, so a death confirmed in error
// (FuzzFaultSchedule found a live source declared dead, and deaths
// confirmed after the recovery) costs a migration, never an outage.
// FailPeer is what the Supervisor calls on detection; tests and
// harnesses may call it directly, never from a peer's loop. It quiesces
// the loops first: an item the dead peer's operators were already handed
// is then processed before the teardown, not raced by it, so a run does
// not depend on the goroutine schedule.
func (s *System) FailPeer(dead string, at time.Duration) []FailoverEvent {
	s.Quiesce()
	s.Ring.Fail(dead) //nolint:errcheck // failing a non-member is a no-op
	return s.repairDeparted(dead, at)
}

// LeavePeer removes a peer gracefully — the cooperative counterpart of
// FailPeer's crash handling, closing the membership layer's "a departing
// peer announces and hands off instead of being suspected" follow-up.
// The departure is announced to every failure detector (gossip
// disseminates it, no suspicion window ever opens, no death event
// fires), the peer's DHT keys migrate to their new owners with the store
// intact (Ring.Leave, not Fail — replication never thins), and its
// hosted operators and managed tasks move to ring members immediately
// through the ordinary repair phases. With the replay layer on, a
// checkpoint sweep runs first while the leaver is still up, so the
// migrations restore warm state and the handoff is lossless — zero
// detection latency, zero outage window. The repair actions taken are
// returned; leave events reach membership alerters through the ring's
// leave hooks as usual. LeavePeer does not stop the leaver's process:
// that is its host's action (the lab harness crashes the node right
// after). A leaver that keeps running answers the detector's probes,
// refutes its departure and rejoins the ring like any recovered peer.
func (s *System) LeavePeer(name string) ([]FailoverEvent, error) {
	if !s.member(name) {
		return nil, fmt.Errorf("peer: %s is not a member", name)
	}
	if !s.Net.Alive(name) {
		return nil, fmt.Errorf("peer: %s is down; a crashed peer cannot leave gracefully", name)
	}
	at := s.clock.Now()
	// Warm handoff: capture fresh checkpoints while the leaver still
	// runs, so its operators' replacements restore the present, not the
	// last periodic sweep.
	if s.replayOn() {
		s.CheckpointNow()
	}
	// The departure announcement: one control message on the wire, the
	// detector unlearns the peer with no suspicion window.
	if g := s.gossipDetector(); g != nil {
		g.Leave(name)
	}
	if tgt := s.leastLoadedLive(name); tgt != "" {
		s.Net.CountTransfer(name, tgt, ctrlMsgBytes)
	}
	// Graceful ring departure: the leaver's stored copies migrate to the
	// new owners (unlike Fail, where they die with it).
	s.Ring.Leave(name) //nolint:errcheck // membership was checked above
	events := s.repairDeparted(name, at)
	// Ring ownership changed: re-parent any aggregation-tree interiors
	// whose DHT-derived host moved with the departure.
	return append(events, s.RebalanceAggTrees()...), nil
}

// repairDeparted runs the repair phases over a peer that is gone —
// confirmed dead (FailPeer) or gracefully left (LeavePeer); the ring no
// longer holds it.
func (s *System) repairDeparted(dead string, at time.Duration) []FailoverEvent {
	var events []FailoverEvent
	// Phase 0: re-home orphaned tasks. A task whose subscription manager
	// died would otherwise vanish from every live peer's database —
	// never repaired, never checkpointed, never swept (PR 2's
	// "orphaned manager" gap). The management role moves to a live
	// peer, which then owns the repair of whatever the dead peer also
	// hosted (phases 1–2 find the task in its new home).
	if mgrPeer := s.Peer(dead); mgrPeer != nil {
		for _, t := range mgrPeer.Tasks() {
			newMgr := s.leastLoadedLive(dead)
			if newMgr == "" {
				continue // nobody left to adopt it; the task stays orphaned
			}
			if ev, ok := s.rehomeTask(mgrPeer, t, newMgr, at); ok {
				events = append(events, ev)
			}
		}
	}
	// Phase 1: re-deploy the operators the dead peer hosted. This runs
	// before consumer re-binding so replacement providers exist (and are
	// announced as replicas) by the time consumers look for one.
	s.eachTask(func(p *Peer, t *Task) {
		events = append(events, p.repairOperators(t, dead, at)...)
	})
	// Phase 2: re-bind subscriptions that consumed channels hosted on
	// the dead peer (reused streams, replicas).
	s.eachTask(func(p *Peer, t *Task) {
		events = append(events, p.repairChannelIns(t, dead, at)...)
	})
	return events
}

// rehomeTask moves a task's subscription-manager role off a dead peer:
// the dead manager dismisses the task (handing back its plan memo count:
// it will not subscribe the body for the task again), newMgr admits it
// and the result reader re-binds there, resuming from the result cursor
// when the replay layer is on. Operators the dead peer hosted (often
// including the publisher, when the manager ran it locally) are NOT
// handled here — the task now lives in a live peer's database, so the
// ordinary repair phases find and migrate them. A task stopped since the
// dead manager's database was read stays stopped: false, no event.
func (s *System) rehomeTask(old *Peer, t *Task, newMgr string, at time.Duration) (FailoverEvent, bool) {
	t.life.Lock()
	defer t.life.Unlock()
	if !old.dismiss(t) {
		return FailoverEvent{}, false
	}
	t.Manager = newMgr
	s.Peer(newMgr).admit(t)

	// The result reader moves to the new manager. When the named channel
	// itself sat on the dead peer the publisher is about to be re-deployed
	// (phase 1), and that move re-binds the reader with every other
	// consumer — re-binding to the doomed channel here would replay from
	// a buffer that died with its host.
	e := t.resultEdge()
	e.peer = newMgr
	if e.src.Ref().PeerID != old.name {
		e.rebind(e.src)
	}
	// The adopting manager pulls the subscription-database record from
	// its surviving DHT copy (the dead peer's links are already cut, so
	// nothing can flow to or from it); the fetch is accounted like any
	// other repair control message.
	if owner, err := s.Ring.Owner(t.ID); err == nil {
		s.Net.CountTransfer(owner, newMgr, ctrlMsgBytes)
	}
	return FailoverEvent{TaskID: t.ID, Operator: "manager", From: old.name, To: newMgr, At: at}, true
}

// RejoinPeer brings a recovered peer back: it rejoins the DHT ring
// (which rebalances key placement). The peer's node is already up — the
// detector saw it answer — and RejoinPeer does not touch it. Tasks migrated
// away during the outage stay where they are — the peer simply becomes
// eligible for new work. Aggregation-tree interiors ARE re-placed,
// though: rejoining moves ring ownership, and leaving the interiors
// where the outage pushed them would let the deployed tree drift from
// the DHT-derived placement that joins, leaves and future failovers
// re-derive (System.AggPlacements) — the same rebalance every other
// membership change performs.
func (s *System) RejoinPeer(name string) []FailoverEvent {
	if s.Peer(name) == nil {
		return nil
	}
	s.Ring.Join(name) //nolint:errcheck // already-joined is fine
	return s.RebalanceAggTrees()
}

// RebalanceAggTrees re-places aggregation-tree interior operators whose
// DHT-derived host changed with ring membership: each interior's routing
// key is resolved against the current ring, and nodes whose owner moved
// migrate there through the move transaction — every consumer, in this
// task or another sharing the interior, re-binds, inputs re-subscribe
// from their cursors, and with replay on the move restores the latest
// checkpoint and deduplicates the overlap (exactly-once, like any
// failover). Returns the migrations taken, stamped with the current
// time. It does nothing when aggregation is flat (Agg.Degree <= 1): only
// aggtree.Rewrite creates the keyed interiors it moves. Every membership
// change and quarantine calls it; tests and harnesses may call it
// directly.
func (s *System) RebalanceAggTrees() []FailoverEvent {
	if s.cfg.Agg.Degree <= 1 {
		return nil
	}
	at := s.clock.Now()
	var events []FailoverEvent
	s.eachTask(func(p *Peer, t *Task) {
		desired := s.AggPlacements(t.Plan)
		postorder(t.Plan, func(n *algebra.Node) {
			if n.AggKey == "" || !s.member(n.Peer) {
				return // departed hosts are the failover path's job
			}
			want := desired[n.AggKey]
			if want == "" || want == n.Peer {
				return
			}
			// A failed planned move is not a loss: relocate checks
			// before it mutates, so the operator keeps running where
			// it is and the next membership change retries.
			if mv, err := p.processorMove(t, n, want, nil); err == nil {
				if ev, err := p.migrate(t, n, mv, at); err == nil {
					events = append(events, ev)
				}
			}
		})
	})
	return events
}

// livePeers returns the peers on the ring, sorted by name for
// deterministic repair order.
func (s *System) livePeers() []*Peer {
	names := s.Ring.Nodes()
	sort.Strings(names)
	out := make([]*Peer, 0, len(names))
	for _, n := range names {
		if p := s.Peer(n); p != nil {
			out = append(out, p)
		}
	}
	return out
}

// eachTask is the one walk over the running tasks: the live peers'
// subscription databases, peers by name and tasks in ID order — the
// order every repair, sweep, checkpoint and rebalance visits them in.
// A visit shares the task's lifetime lock, so Stop waits for it; a task
// that Stop (or a re-homing) holds, or that stopped since its database
// was read, is not visited. Visits nest: a split's checkpoint sweep walks
// again.
func (s *System) eachTask(visit func(p *Peer, t *Task)) {
	for _, p := range s.livePeers() {
		for _, t := range p.Tasks() {
			if t.life.TryRLock() {
				if !t.stopped {
					visit(p, t)
				}
				t.life.RUnlock()
			}
		}
	}
}

// repairOperators migrates every operator of t hosted on the dead peer.
// Children are visited before parents so a parent re-deployed in the
// same pass subscribes to its child's replacement channel.
func (p *Peer) repairOperators(t *Task, dead string, at time.Duration) []FailoverEvent {
	s := p.sys
	var events []FailoverEvent
	postorder(t.Plan, func(n *algebra.Node) {
		if n.Peer != dead || n.Op == algebra.OpChannelIn {
			return // consumed channels are re-bound in phase 2
		}
		loss := FailoverEvent{TaskID: t.ID, Operator: n.Label(), From: dead, At: at}
		lost := func(why string) {
			t.degraded = append(t.degraded, n.Label()+why)
			events = append(events, loss)
		}
		var mv move
		var err error
		switch n.Op {
		case algebra.OpAlerter:
			// The event source itself departed: its events originate
			// there, so no other peer can produce them. The task is
			// degraded until the peer returns (Task.Degraded).
			events = append(events, loss)
			return
		case algebra.OpDynAlerter:
			// The *manager* of the dynamic alerter set died, not the
			// monitored peers: a new manager elsewhere replays the
			// membership stream to reconstruct the active set and
			// re-attaches the hooks. Without the replay layer there is no
			// membership history to reconstruct from — reporting a repair
			// while silently dropping every already-joined peer would be
			// worse than visible degradation.
			if !s.replayOn() {
				lost("")
				return
			}
			mv = p.dynAlerterMove(t, n, s.leastLoadedLive(dead))
		case algebra.OpPublish:
			// The publisher's sinks (mailbox, file, feed) are task-level
			// state at the live manager, so the fan-out itself can move:
			// a new named channel opens at a live host and external
			// consumers find it through a replica record.
			mv = p.publisherMove(t, n, s.leastLoadedLive(dead))
		default:
			host, adopt := p.failoverHost(t, n, dead)
			mv, err = p.processorMove(t, n, host, adopt)
		}
		var ev FailoverEvent
		if err == nil {
			ev, err = p.migrate(t, n, mv, at)
		}
		if err != nil {
			lost(": " + err.Error())
			return
		}
		events = append(events, ev)
	})
	return events
}

// migrate runs one move and reports it.
func (p *Peer) migrate(t *Task, n *algebra.Node, mv move, at time.Duration) (FailoverEvent, error) {
	from := n.Peer
	if err := p.relocate(t, n, mv); err != nil {
		return FailoverEvent{}, err
	}
	return FailoverEvent{
		TaskID: t.ID, Operator: n.Label(), From: from, To: mv.host,
		ViaReplica: mv.adopt != nil, At: at,
	}, nil
}

// failoverHost picks where a processor of a departed peer restarts.
// Aggregation-tree interiors are placed by bounded DHT key routing, and
// repair keeps that invariant: the host is re-derived from the plan's
// routing keys against the *current* ring (the dead peer already left
// it), so the tree shape keeps tracking membership across any number of
// migrations. Otherwise a live peer that announced a replica of the
// stream is preferred: it is already receiving the data and republishing
// it under a channel other consumers may already use (replica records
// chain to the original identity, so that is where they are looked up).
// Failing both, the least-loaded live peer; "" when none is left.
func (p *Peer) failoverHost(t *Task, n *algebra.Node, dead string) (string, *stream.Channel) {
	s := p.sys
	if n.AggKey != "" {
		if cand := s.AggPlacements(t.Plan)[n.AggKey]; cand != "" && cand != dead {
			return cand, nil
		}
	}
	_, origRef := t.outputRefs(n)
	replicas, _, _ := s.DB.Replicas(p.name, origRef)
	for _, r := range replicas {
		if r.PeerID == dead || !s.usable(r) {
			continue
		}
		if ch, ok := s.Channel(r); ok {
			return r.PeerID, ch
		}
	}
	return s.leastLoadedLive(dead), nil
}

// processorMove prepares the move of one stream processor to host.
//
// Without the replay layer, the operator restarts cold with fresh
// subscriptions from "now": state accumulated at the old host and events
// published during the outage are lost — the price of fail-stop crashes.
// With it, the operator restores the latest replicated checkpoint (state
// + input cursors + output sequence), resumes its inputs from the
// checkpointed positions via the upstream replay buffers, and re-emits
// its post-checkpoint suffix under the original sequence numbers, which
// downstream cursors deduplicate — exactly-once from the consumer's
// point of view.
func (p *Peer) processorMove(t *Task, n *algebra.Node, host string, adopt *stream.Channel) (move, error) {
	ck := p.sys.loadCheckpoint(p.name, t, n)
	proc, err := p.makeProc(n)
	if err != nil {
		return move{}, err
	}
	if ck != nil && ck.State != nil {
		if sn, ok := proc.(operators.Snapshotter); ok && sn.Restore(ck.State) != nil {
			// A corrupt snapshot degrades to a cold restart; the input
			// replay still reconstructs what the buffers hold.
			proc, _ = p.makeProc(n)
		}
	}
	return move{host: host, adopt: adopt, resume: ck,
		start: func(queues []*stream.Queue, out *stream.Channel) *operators.Handle {
			return p.runProc(t, n, proc, queues, out)
		}}, nil
}

// publisherMove prepares the move of a task's publisher fan-out. The
// task's manager is live by the time this runs — either it was never the
// dead peer, or repair phase 0 already re-homed the management role
// (rehomeTask) — but the publisher may have sat on the dead peer either
// way. A new named channel with the same ChannelID opens at host and the
// sink fan-out is rebuilt over the task-level sink state. The move has
// already re-bound the named channel's consumers by then — the manager
// keeps reading the same Results() queue, a BY subscribe target the same
// Incoming queue, and their cursors drop the re-published overlap.
func (p *Peer) publisherMove(t *Task, n *algebra.Node, host string) move {
	return move{host: host, resume: p.sys.loadCheckpoint(p.name, t, n),
		start: func(queues []*stream.Queue, named *stream.Channel) *operators.Handle {
			p.runPublisher(t, n, queues[0], named)
			if t.resultCh == t.namedCh {
				t.resultCh = named
			}
			t.namedCh = named
			return t.procs[n].handle
		}}
}

// dynAlerterMove prepares the move of the manager of an inCOM($j)-style
// dynamic alerter set. The monitored peers (where the hooks attach) are
// unaffected — only the coordination loop died. A fresh manager at host
// replays the full membership stream from the driver channel's retention
// buffer (a cold start: p-join/p-leave events replayed in order rebuild
// the active set, deduplicating joins by construction); its output
// channel continues the logical stream's numbering so downstream cursors
// stay valid. Events the monitored peers emitted during the outage are
// not recoverable (they originate live at the substrate), matching the
// alerter semantics.
func (p *Peer) dynAlerterMove(t *Task, n *algebra.Node, host string) move {
	return move{host: host,
		start: func(queues []*stream.Queue, out *stream.Channel) *operators.Handle {
			h := p.runDynAlerter(t, n, queues[0], out)
			if ch, ok := p.sys.nodeChannel(t, n.Inputs[0]); ok && ch.ReplayTrimmed() > 0 {
				// Part of the membership history was evicted from the
				// driver's bounded buffer: the reconstructed active set
				// may be missing peers that joined early. Report it —
				// silently narrowing the monitored set would defeat the
				// point of re-deploying at all.
				t.degraded = append(t.degraded, n.Label()+": membership history truncated, active set may be partial")
			}
			return h
		}}
}

// repairChannelIns re-binds the task's subscriptions to channels that
// lived on the dead peer (reused streams and replicas) onto a live
// provider of the same original stream.
func (p *Peer) repairChannelIns(t *Task, dead string, at time.Duration) []FailoverEvent {
	var events []FailoverEvent
	postorder(t.Plan, func(n *algebra.Node) {
		if n.Op != algebra.OpChannelIn || n.Channel.PeerID != dead {
			return
		}
		origin := n.Origin
		if origin == (stream.Ref{}) {
			origin = n.Channel
		}
		repl, viaReplica := p.sys.liveProvider(p.name, origin, dead)
		if repl == nil {
			// Degraded until the peer returns (Task.Degraded).
			events = append(events, FailoverEvent{
				TaskID: t.ID, Operator: "∈" + n.Channel.String(), From: dead, At: at,
			})
			return
		}
		for _, e := range t.edges {
			if e.child == n {
				e.rebind(repl)
				p.sys.Net.CountTransfer(e.peer, repl.Ref().PeerID, ctrlMsgBytes)
			}
		}
		n.Channel = repl.Ref()
		events = append(events, FailoverEvent{
			TaskID: t.ID, Operator: "∈" + origin.String(), From: dead,
			To: repl.Ref().PeerID, ViaReplica: viaReplica, At: at,
		})
	})
	return events
}

// liveProvider finds a live channel carrying the stream origin: the
// original channel if its host is up and it still has its producer,
// else any usable announced replica (including the replacements a move
// commits, which chain to the origin).
func (s *System) liveProvider(from string, origin stream.Ref, dead string) (*stream.Channel, bool) {
	if origin.PeerID != dead && s.usable(origin) {
		if ch, ok := s.Channel(origin); ok {
			return ch, false
		}
	}
	replicas, _, _ := s.DB.Replicas(from, origin)
	for _, r := range replicas {
		if r.PeerID == dead || !s.usable(r) {
			continue
		}
		if ch, ok := s.Channel(r); ok {
			return ch, true
		}
	}
	return nil, false
}

// nodeChannel resolves the channel currently carrying a plan node's
// output stream.
func (s *System) nodeChannel(t *Task, n *algebra.Node) (*stream.Channel, bool) {
	if n.Op == algebra.OpChannelIn {
		return s.Channel(n.Channel)
	}
	ref, ok := t.refs[n]
	if !ok {
		return nil, false
	}
	return s.Channel(ref)
}

// leastLoadedLive picks the live peer with the lowest load (name as
// tie-breaker), excluding the dead peer.
func (s *System) leastLoadedLive(dead string) string {
	best, bestLoad := "", 0
	for _, p := range s.livePeers() {
		if p.name == dead {
			continue
		}
		l := s.load(p.name)
		if best == "" || l < bestLoad {
			best, bestLoad = p.name, l
		}
	}
	return best
}

// postorder visits children before parents.
func postorder(n *algebra.Node, f func(*algebra.Node)) {
	for _, in := range n.Inputs {
		postorder(in, f)
	}
	f(n)
}
