// Runtime re-chunking of aggregation trees: SplitInterior takes one hot
// merge interior and pushes its children down under two fresh key-routed
// sub-interiors, halving the hot host's fan-in while the tree keeps
// running. It is a move (move.go) like any other, and exactly-once end
// to end: the old instance's state, input cursors and output position
// are captured as one consistent cut (the same Handle.Sync discipline
// checkpoints use), the new sub-interiors resume each child stream from
// the cut via the replay buffers, and the split interior restarts from
// the captured state on a replacement channel that continues the
// original sequence numbering — downstream cursors deduplicate any
// overlap, so the published output is byte-identical to the unsplit run.
package peer

import (
	"fmt"
	"time"

	"p2pm/internal/aggtree"
	"p2pm/internal/algebra"
	"p2pm/internal/operators"
	"p2pm/internal/stream"
)

// SplitEvent reports one completed interior split.
type SplitEvent struct {
	TaskID   string
	Operator string   // label of the re-chunked interior
	Peer     string   // its (unchanged) host
	Keys     []string // routing keys of the created sub-interiors
	Hosts    []string // their DHT-derived hosts, parallel to Keys
	At       time.Duration
}

// SplitInterior re-chunks the aggregation-tree interior identified by
// its routing key inside one task: direct actuation for tests and
// operators; the load-driven controller (startRechunkController) calls
// the same machinery. Requires the replay layer — without retained
// input history the children could not resume from the cut.
func (s *System) SplitInterior(t *Task, aggKey string) (SplitEvent, error) {
	if aggKey == "" {
		return SplitEvent{}, fmt.Errorf("peer: only key-routed interiors split (the Final root stays put)")
	}
	p := s.Peer(t.Manager)
	if p == nil || !s.Net.Alive(t.Manager) {
		return SplitEvent{}, fmt.Errorf("peer: task %s has no live manager", t.ID)
	}
	var target *algebra.Node
	t.Plan.Walk(func(n *algebra.Node) {
		if n.AggKey == aggKey {
			target = n
		}
	})
	if target == nil {
		return SplitEvent{}, fmt.Errorf("peer: no interior %q in task %s", aggKey, t.ID)
	}
	return p.splitInterior(t, target, s.Net.Clock().Now())
}

// splitInterior re-chunks one interior in place: a move to the same host
// whose resume point is a live capture of the running instance and whose
// input step pushes the children down under two new sub-interiors
// (rechunk). A CheckpointNow at the end makes the new shape durable
// immediately: the pre-split checkpoint has the old arity (the loader's
// arity guard would discard it), so a crash in the gap would otherwise
// cold-restart the interior and lose the merged pre-cut state.
func (p *Peer) splitInterior(t *Task, n *algebra.Node, at time.Duration) (SplitEvent, error) {
	s := p.sys
	if !s.replayOn() {
		return SplitEvent{}, fmt.Errorf("peer: SplitInterior needs the replay layer")
	}
	if !s.Net.Alive(n.Peer) {
		// A dead host is failover's problem: repair re-derives the
		// interior's placement and restores its checkpoint; splitting a
		// corpse would capture nothing.
		return SplitEvent{}, fmt.Errorf("peer: interior host %s is down", n.Peer)
	}
	inst := t.procs[n]
	if inst == nil {
		return SplitEvent{}, fmt.Errorf("peer: interior %s is not running", n.Label())
	}
	out, ok := s.Channel(t.refs[n])
	if !ok {
		return SplitEvent{}, fmt.Errorf("peer: interior %s has no output channel", n.Label())
	}
	if n.Op != algebra.OpMergeAgg || len(n.Inputs) < 4 {
		// Every sub-interior must merge at least two children.
		return SplitEvent{}, fmt.Errorf("peer: interior %s is too narrow to split (fan-in %d)", n.Label(), len(n.Inputs))
	}

	// Capture the cut: state, per-input consumed positions and output
	// sequence, serialized with the processing loop so they are mutually
	// consistent; plus the undelivered output tail, which must survive
	// the old channel's abandonment.
	rec := &ckptRec{In: make([]uint64, len(n.Inputs))}
	inst.handle.Sync(func() {
		for i := range rec.In {
			rec.In[i] = inst.handle.Consumed(i)
		}
		rec.OutSeq = out.Seq()
		if sn, ok := inst.proc.(operators.Snapshotter); ok {
			rec.State = sn.Snapshot()
		}
	})
	if low := s.lowWater(out.Ref(), rec.OutSeq); low <= rec.OutSeq {
		rec.Tail, _ = out.Replay(low, rec.OutSeq)
	}
	proc, err := p.makeProc(n)
	if err != nil {
		return SplitEvent{}, err
	}
	if sn, ok := proc.(operators.Snapshotter); ok && rec.State != nil {
		if err := sn.Restore(rec.State); err != nil {
			return SplitEvent{}, fmt.Errorf("peer: restoring %s across the split: %w", n.Label(), err)
		}
	}

	ev := SplitEvent{TaskID: t.ID, Operator: n.Label(), Peer: n.Peer, At: at}
	err = p.relocate(t, n, move{host: n.Peer, resume: rec,
		rechunk: func(es []*edge, ins []*stream.Channel) ([]*stream.Queue, error) {
			return p.rechunk(t, n, rec.In, es, ins, &ev)
		},
		start: func(queues []*stream.Queue, newOut *stream.Channel) *operators.Handle {
			return p.runProc(t, n, proc, queues, newOut)
		}})
	if err != nil {
		return ev, err
	}

	// Make the new shape durable now: the pre-split checkpoint's arity no
	// longer matches, so until this sweep lands a crash would cold-restart
	// the interior without its pre-cut state.
	s.CheckpointNow()
	s.mu.Lock()
	s.splitLog = append(s.splitLog, ev)
	s.mu.Unlock()

	// Re-derive placement tree-wide. The split pinned only its own
	// sub-interiors to their DHT homes, but adding keys moves the
	// bounded-load running caps, so other interiors' derived homes may
	// have shifted; migrate them now instead of leaving the invariant
	// broken until the next failover.
	s.RebalanceAggTrees(s.Net.Clock().Now())
	return ev, nil
}

// rechunk is the split's input step (move.rechunk): the plan is re-chunked
// under a fresh tree identity (unique per split, so the new routing keys
// collide with nothing placed before), each new sub-interior is pinned to
// its DHT-derived home and takes over its share of n's input edges —
// they change consumer and resume from the cut, closing the old
// instance's readers as a side effect (once the last closes, the old
// instance flushes into the now-abandoned old channel and terminates). A
// sub-interior starts with empty state: everything up to the cut lives in
// the parent's captured snapshot, everything after replays into the
// sub-interior; SeedConsumed pins the cut so a checkpoint sweep racing
// the replay cannot record the cursors as 0. n subscribes to each
// sub-interior's channel before the sub-interior starts, so it misses
// nothing. The returned queues are n's new inputs.
func (p *Peer) rechunk(t *Task, n *algebra.Node, cut []uint64, es []*edge, ins []*stream.Channel, ev *SplitEvent) ([]*stream.Queue, error) {
	s := p.sys
	s.mu.Lock()
	s.splitSeq++
	id := fmt.Sprintf("%s.s%d", t.ID, s.splitSeq)
	s.mu.Unlock()
	created := aggtree.Split(n, id, aggtree.Config{Degree: s.cfg.Agg.Degree})
	desired := s.AggPlacements(t.Plan)
	var queues []*stream.Queue
	for _, m := range created {
		if h := desired[m.AggKey]; h != "" {
			m.Peer = h
		}
		proc, err := p.makeProc(m)
		if err != nil {
			return nil, err
		}
		mOut := s.allocChannel(t, m.Peer, s.nextStreamID(m.Peer))
		t.refs[m], t.origRefs[m] = mOut.Ref(), mOut.Ref()
		queues = append(queues, p.subscribeInput(t, n, m, mOut))
		k := len(m.Inputs)
		mq := make([]*stream.Queue, k)
		for i, e := range es[:k] {
			e.consumer = m
			mq[i] = e.resume(ins[i], m.Peer, cut[i]+1)
		}
		h := p.runProc(t, m, proc, mq, mOut)
		for i, seq := range cut[:k] {
			h.SeedConsumed(i, seq)
		}
		es, ins, cut = es[k:], ins[k:], cut[k:]
		ev.Keys = append(ev.Keys, m.AggKey)
		ev.Hosts = append(ev.Hosts, m.Peer)
	}
	return queues, nil
}

// SplitEvents returns the audit log of every completed interior split,
// whether actuated directly or by the re-chunking controller.
func (s *System) SplitEvents() []SplitEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SplitEvent(nil), s.splitLog...)
}
