// Replay and recovery: the peer-side half of the lossless-failover
// subsystem. Channels retain their published tail (internal/stream's
// replay buffers); this file adds the consumer cursors on every operator
// input binding, the anti-entropy sweep that refills link-fault losses
// from those buffers, and periodic operator checkpointing through the
// stream-definition database's replicated DHT storage — so a migrated
// operator resumes from its checkpoint and its consumers resume from
// their cursors, exactly once, instead of restarting at "now".
package peer

import (
	"strconv"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/kadop"
	"p2pm/internal/operators"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// subscribeOrdered attaches a consumer to a channel through a cursor
// gate: network transport (accounting, latency, faults) applies as
// usual, then the cursor deduplicates and orders deliveries into q.
// fromSeq > 0 resumes from the retained history (SubscribeFrom); the
// cursor may be nil when the replay layer is off, reproducing the plain
// lossy delivery path. The subscription is not tracked — callers own
// teardown bookkeeping.
func (p *Peer) subscribeOrdered(ch *stream.Channel, consumerPeer string, cur *stream.Cursor, q *stream.Queue, fromSeq uint64) *stream.Subscription {
	s := p.sys
	from := ch.Ref().PeerID
	deliver := func(it stream.Item, _ *stream.Queue) {
		if from != consumerPeer {
			var ok bool
			if it, ok = s.link.Deliver(from, consumerPeer, it); !ok {
				return
			}
		}
		if it.EOS() {
			if cur != nil {
				cur.Terminate(it)
			} else {
				q.Push(it)
			}
			q.Close()
			return
		}
		if cur != nil {
			cur.Offer(it)
		} else {
			q.Push(it)
		}
	}
	return s.attachResuming(ch, consumerPeer, cur, fromSeq, deliver)
}

// attachResuming is the shared core of the cursor-resume protocol:
// attach at fromSeq via the retention buffer (counting retransmissions,
// releasing the cursor past any trimmed prefix) or, with fromSeq 0, at
// "now" with the cursor floored at the attach point.
func (s *System) attachResuming(ch *stream.Channel, name string, cur *stream.Cursor, fromSeq uint64, deliver func(stream.Item, *stream.Queue)) *stream.Subscription {
	if fromSeq > 0 && ch.ReplayEnabled() {
		sub := ch.SubscribeFrom(name, fromSeq, deliver)
		if sub.Replayed > 0 {
			s.replayed.Add(uint64(sub.Replayed))
		}
		if cur != nil && sub.ReplayFrom > fromSeq {
			// The retention buffer already trimmed the prefix: those
			// sequences are unrecoverable, release anything parked behind
			// them.
			cur.SkipTo(sub.ReplayFrom)
		}
		return sub
	}
	sub := ch.Subscribe(name, deliver)
	if cur != nil {
		cur.AdvanceTo(sub.StartSeq)
	}
	return sub
}

// newBinding builds the cursor-gated queue for one operator input edge.
// after is the highest sequence the consumer is NOT owed (0 = owed
// everything the subscription delivers).
func (s *System) newBinding(after uint64) (*stream.Queue, *stream.Cursor) {
	q := stream.NewQueue()
	if !s.replayOn() {
		return q, nil
	}
	return q, stream.NewCursor(after, q.Push)
}

// resubscribeInput replaces one input binding's subscription for a
// consumer instance re-deployed at newPeer: the old subscription and
// queue are torn down (terminating the dead instance's reader) and a
// fresh cursor-gated queue resumes from fromSeq (0 = attach at "now").
// It returns the new queue feeding the replacement instance.
func (p *Peer) resubscribeInput(t *Task, b *inputBinding, ch *stream.Channel, newPeer string, fromSeq uint64) *stream.Queue {
	s := p.sys
	b.sub.Unsubscribe()
	// When an earlier repair in the same pass re-bound this input
	// (chained operators on the dead peer), b.sub's queue is not the old
	// operator's reader — close that reader explicitly so the dead
	// instance's goroutine terminates.
	b.queue.Close()
	var after uint64
	if fromSeq > 0 {
		after = fromSeq - 1
	}
	q, cur := s.newBinding(after)
	sub := p.subscribeOrdered(ch, newPeer, cur, q, fromSeq)
	if !p.trackSub(t, ch, sub) {
		// Shared source: Stop must close the replacement queue explicitly.
		t.extQueues = append(t.extQueues, q)
	}
	b.sub, b.queue, b.cursor, b.src, b.consumerPeer = sub, q, cur, ch, newPeer
	s.link.CountTransfer(t.Manager, ch.Ref().PeerID, ctrlMsgBytes)
	return q
}

// syncBindings is the anti-entropy sweep: for every operator input edge
// whose producing channel retains history, retransmit the sequences the
// consumer's cursor is still missing (items lost to drop faults or
// partitions). Retransmissions pay the link like any delivery, but
// reliably — replay stands in for the acknowledged transfer a real
// deployment would use.
func (s *System) syncBindings() {
	for _, p := range s.livePeers() {
		for _, t := range sortedTasks(p) {
			for _, b := range t.bindings {
				s.syncBinding(b)
			}
			for _, st := range t.subTargets {
				s.syncSubTarget(t, st)
			}
			s.syncResults(t)
		}
	}
}

// syncSubTarget refills a BySubscribe target's gaps from the named
// channel's retention buffer, like any binding.
func (s *System) syncSubTarget(t *Task, st *subTarget) {
	ch := t.namedCh
	if ch == nil || !ch.ReplayEnabled() || st.dest.Closed() {
		return
	}
	ref := ch.Ref()
	if s.isStale(ref) || !s.Net.Alive(st.peer) || !s.Net.Reachable(ref.PeerID, st.peer) {
		return
	}
	s.refill(ref.PeerID, st.peer, ch, st.cur)
}

// syncResults refills the manager's result reader (delivery is local, so
// gaps only appear across publisher migrations with trimmed buffers —
// repairing them here keeps Results() live instead of parked).
func (s *System) syncResults(t *Task) {
	ch := t.namedCh
	if ch == nil || t.resultCur == nil || !ch.ReplayEnabled() || t.resultQ.Closed() {
		return
	}
	if s.isStale(ch.Ref()) || !s.Net.Alive(t.Manager) {
		return
	}
	s.refill(ch.Ref().PeerID, t.Manager, ch, t.resultCur)
}

func (s *System) syncBinding(b *inputBinding) {
	ch, cur := b.src, b.cursor
	if ch == nil || cur == nil || !ch.ReplayEnabled() || b.queue.Closed() {
		return
	}
	ref := ch.Ref()
	if s.isStale(ref) || !s.Net.Alive(b.consumerPeer) || !s.Net.Reachable(ref.PeerID, b.consumerPeer) {
		return
	}
	s.refill(ref.PeerID, b.consumerPeer, ch, cur)
}

// syncReplicas keeps announced-replica mirrors gap-free: a forwarder
// whose cursor is missing sequences (lost on the origin→replica link)
// re-pulls them from the origin's retention buffer.
func (s *System) syncReplicas() {
	s.mu.Lock()
	fwds := append([]*replicaForwarder(nil), s.forwarders...)
	s.mu.Unlock()
	for _, f := range fwds {
		if f.cur == nil || f.severed || f.rep.Closed() {
			continue
		}
		ch, ok := s.Channel(f.orig)
		if !ok || !ch.ReplayEnabled() {
			continue
		}
		to := f.rep.Ref().PeerID
		if s.isStale(f.orig) || !s.Net.Alive(to) || !s.Net.Reachable(f.orig.PeerID, to) {
			continue
		}
		s.refill(f.orig.PeerID, to, ch, f.cur)
	}
}

// refill retransmits the retained items the cursor is genuinely missing:
// sequences it already delivered or holds parked ahead-of-order are not
// re-sent (they would only inflate the traffic counters to be dropped as
// duplicates on arrival).
func (s *System) refill(from, to string, ch *stream.Channel, cur *stream.Cursor) {
	next, hi := cur.Next(), ch.Seq()
	if next > hi {
		return
	}
	items, first := ch.Replay(next, hi)
	if first > next {
		cur.SkipTo(first)
	}
	sent := 0
	for _, it := range items {
		if cur.Has(it.Seq) {
			continue
		}
		cur.Offer(s.Net.Send(from, to, it))
		sent++
	}
	if sent > 0 {
		s.replayed.Add(uint64(sent))
	}
}

// coldSeed positions a replacement output channel for a checkpoint-less
// restart. With the full input history still retained upstream, the
// re-emission reproduces the original numbering exactly — rewind to 0 so
// downstream cursors deduplicate the overlap. When nothing re-emits — the
// replay layer is off, the stream is live alerts (a dynamic alerter's
// output cannot be replayed), or an input has trimmed its buffer, so
// re-emission would renumber and collide with sequences consumers
// already hold, silently swallowing new data — continue above the old
// channel's high-water mark instead (the stream statistics a real
// deployment publishes; here, the abandoned channel object), trading
// bounded content duplicates (a retained window re-emitted under fresh
// numbers) for monotonic numbering and zero silent loss.
func (s *System) coldSeed(t *Task, n *algebra.Node, out *stream.Channel, oldSeq uint64) {
	reemits := s.replayOn() && n.Op != algebra.OpDynAlerter
	for _, in := range n.Inputs {
		if ch, ok := s.nodeChannel(t, in); ok && ch.ReplayTrimmed() > 0 {
			reemits = false
		}
	}
	if reemits {
		out.SeedSeq(0)
	} else if oldSeq > out.Seq() {
		out.SeedSeq(oldSeq)
	}
}

// ckptRec is one operator checkpoint: the output stream position, the
// per-input consumed positions, (for stateful processors) the operator
// state snapshot, and the undelivered output tail — retained items some
// live consumer has not received yet, which would otherwise die with the
// producer's buffer (an output published during a partition, or dropped
// on a link, counts as stable only once delivered). Together they pin a
// consistent cut: the tail re-seeds the replacement channel's buffer,
// and replaying each input from In[i]+1 into the restored state re-emits
// exactly the post-checkpoint output suffix, under the same sequence
// numbers from OutSeq+1, which downstream cursors deduplicate.
type ckptRec struct {
	OutSeq uint64
	In     []uint64
	State  *xmltree.Node
	Tail   []stream.Item
}

func (c *ckptRec) toXML() *xmltree.Node {
	n := xmltree.Elem("Ckpt")
	n.SetAttr("outSeq", strconv.FormatUint(c.OutSeq, 10))
	for i, seq := range c.In {
		in := xmltree.Elem("In")
		in.SetAttr("idx", strconv.Itoa(i))
		in.SetAttr("seq", strconv.FormatUint(seq, 10))
		n.Append(in)
	}
	if c.State != nil {
		n.Append(xmltree.Elem("State", c.State))
	}
	for _, it := range c.Tail {
		o := xmltree.Elem("Out", it.Tree.Clone())
		o.SetAttr("seq", strconv.FormatUint(it.Seq, 10))
		o.SetAttr("t", strconv.FormatInt(int64(it.Time), 10))
		n.Append(o)
	}
	return n
}

func parseCkpt(n *xmltree.Node) *ckptRec {
	if n == nil || n.Label != "Ckpt" {
		return nil
	}
	out, err := strconv.ParseUint(n.AttrOr("outSeq", "0"), 10, 64)
	if err != nil {
		return nil
	}
	rec := &ckptRec{OutSeq: out}
	for _, in := range n.ChildrenByLabel("In") {
		seq, err := strconv.ParseUint(in.AttrOr("seq", "0"), 10, 64)
		if err != nil {
			return nil
		}
		rec.In = append(rec.In, seq)
	}
	if st := n.Child("State"); st != nil {
		for _, c := range st.Children {
			if !c.IsText() {
				rec.State = c
				break
			}
		}
	}
	for _, o := range n.ChildrenByLabel("Out") {
		seq, err := strconv.ParseUint(o.AttrOr("seq", "0"), 10, 64)
		if err != nil {
			return nil
		}
		t, err := strconv.ParseInt(o.AttrOr("t", "0"), 10, 64)
		if err != nil {
			return nil
		}
		var tree *xmltree.Node
		for _, ch := range o.Children {
			if !ch.IsText() {
				tree = ch
				break
			}
		}
		if tree == nil {
			continue
		}
		rec.Tail = append(rec.Tail, stream.Item{Tree: tree, Seq: seq, Time: time.Duration(t)})
	}
	return rec
}

// lowWater returns the lowest next-undelivered sequence any live
// consumer of the channel still needs — binding cursors, replica
// forwarders and manager result readers alike. Items at or above it are
// not yet stable and belong in the checkpoint's tail.
func (s *System) lowWater(ref stream.Ref, hi uint64) uint64 {
	low := hi + 1
	consider := func(next uint64) {
		if next < low {
			low = next
		}
	}
	s.mu.Lock()
	peers := make([]*Peer, 0, len(s.peers))
	for _, p := range s.peers {
		peers = append(peers, p)
	}
	fwds := append([]*replicaForwarder(nil), s.forwarders...)
	s.mu.Unlock()
	for _, p := range peers {
		for _, t := range p.Tasks() {
			for _, b := range t.bindings {
				if b.src != nil && b.cursor != nil && b.src.Ref() == ref && !b.queue.Closed() {
					consider(b.cursor.Next())
				}
			}
			if t.resultCur != nil && t.namedCh != nil && t.namedCh.Ref() == ref && !t.resultQ.Closed() {
				consider(t.resultCur.Next())
			}
			if t.namedCh != nil && t.namedCh.Ref() == ref {
				for _, st := range t.subTargets {
					if !st.dest.Closed() {
						consider(st.cur.Next())
					}
				}
			}
		}
	}
	for _, f := range fwds {
		if f.cur != nil && !f.severed && f.orig == ref {
			consider(f.cur.Next())
		}
	}
	return low
}

// ckptOpID names one plan operator stably across migrations: the
// stream's first-deployment identity, which is also what replica records
// chain to.
func ckptOpID(t *Task, n *algebra.Node) string {
	if ref, ok := t.origRefs[n]; ok && ref != (stream.Ref{}) {
		return ref.String()
	}
	if n.Op == algebra.OpPublish && n.Publish != nil {
		return "publish:" + n.Publish.ChannelID
	}
	return "op:" + n.Label()
}

// CheckpointNow snapshots every running operator of every live peer's
// tasks into the stream-definition database (replicated DHT storage, so
// checkpoints survive the crash of their own host). Each snapshot is
// taken inside Handle.Sync — serialized with the operator's processing
// loop — so state, consumed cursors and output sequence form one
// consistent cut. Step drives this on the CheckpointInterval cadence;
// tests may call it directly.
func (s *System) CheckpointNow() {
	for _, p := range s.livePeers() {
		for _, t := range sortedTasks(p) {
			p.checkpointTask(t)
		}
	}
}

func (p *Peer) checkpointTask(t *Task) {
	s := p.sys
	for n, inst := range t.procs {
		if !s.Net.Alive(n.Peer) {
			continue // a dead host cannot checkpoint
		}
		var out *stream.Channel
		if n.Op == algebra.OpPublish {
			out = t.namedCh
		} else if ch, ok := s.Channel(t.refs[n]); ok {
			out = ch
		}
		if out == nil {
			continue
		}
		rec := &ckptRec{In: make([]uint64, len(n.Inputs))}
		inst.handle.Sync(func() {
			for i := range n.Inputs {
				rec.In[i] = inst.handle.Consumed(i)
			}
			rec.OutSeq = out.Seq()
			if sn, ok := inst.proc.(operators.Snapshotter); ok {
				rec.State = sn.Snapshot()
			}
		})
		// An output is stable only once delivered: retained items some
		// live consumer still lacks (partition in progress, drop not yet
		// swept) ride along as the checkpoint's tail, so they survive the
		// producer's buffer.
		if low := s.lowWater(out.Ref(), rec.OutSeq); low <= rec.OutSeq {
			rec.Tail, _ = out.Replay(low, rec.OutSeq)
		}
		xml := rec.toXML().String()
		op := ckptOpID(t, n)
		if err := s.DB.PutCheckpoint(t.ID, op, xml); err != nil {
			continue // empty ring mid-churn: retry next interval
		}
		// The checkpoint ships from the operator's host to the record's
		// DHT owner and shows up in the traffic counters like any other
		// monitoring cost.
		if owner, err := s.Ring.Owner(kadop.CheckpointKey(t.ID, op)); err == nil {
			s.link.CountTransfer(n.Peer, owner, len(xml))
		}
	}
}

// loadCheckpoint fetches the latest surviving checkpoint for one plan
// operator, or nil for a cold restart: the replay layer is off, nothing
// survives, or the record predates a re-chunk of the operator's inputs.
func (s *System) loadCheckpoint(from string, t *Task, n *algebra.Node) *ckptRec {
	if !s.replayOn() {
		return nil
	}
	raw, ok, err := s.DB.Checkpoint(from, t.ID, ckptOpID(t, n))
	if err != nil || !ok {
		return nil
	}
	doc, err := xmltree.Parse(raw)
	if err != nil {
		return nil
	}
	if ck := parseCkpt(doc); ck != nil && len(ck.In) == len(n.Inputs) {
		return ck
	}
	return nil
}
