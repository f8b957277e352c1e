// The consumer edge: the paper has one inter-peer primitive — a peer
// publishes a stream as a channel and another peer subscribes to it — and
// this file is its one implementation. An operator input, the manager's
// result reader, a BY subscribe target, an announced replica's forwarder
// and an outside reader (System.SubscribeChannel) are all an edge: they
// differ only in where delivered items land. One link per channel and
// consumer peer carries items across the network, however many of that
// peer's edges read them; one sweep refills what the link lost, edge by
// edge; one index says who consumes a channel. See docs/REPLAY.md "The
// consumer edge".
package peer

import (
	"sort"
	"sync/atomic"

	"p2pm/internal/algebra"
	"p2pm/internal/stream"
)

// edge is one subscription of a consumer peer to a channel.
type edge struct {
	sys *System
	// id orders the edges of one task by creation, which is also the order
	// of Task.edges.
	id uint64
	// task owns the edge and closes it on Stop; nil for a replica forwarder
	// and for an outside reader, which belong to no subscription.
	task *Task
	// consumer and child place an operator input in the plan: the reading
	// operator and the node producing the stream it reads. nil otherwise.
	consumer, child *algebra.Node
	// peer is where the consumer runs: the subscription's name and the far
	// end of the link.
	peer string
	// local marks the manager's reader of its own task's results, whose
	// live delivery crosses no link wherever the publisher runs.
	local bool

	// Where delivered items land: queue for an operator input, the result
	// reader and a BY subscribe target (the target's Incoming queue), rep
	// for a replica forwarder, an outside reader's own queue; sink pushes
	// into whichever it is.
	queue *stream.Queue
	rep   *stream.Channel
	sink  func(stream.Item)
	// cur gates deliveries into sink: in sequence order, exactly once,
	// tracking where a re-bound subscription resumes. nil with the replay
	// layer off, which is the plain lossy delivery path.
	cur *stream.Cursor

	// The live attachment, guarded by sys.mu together with the index: a
	// subscription of the edge's own (a producer on the consumer's peer, or
	// the manager's local reader) or the link it shares (a remote
	// producer). src stays set after detach (the next attach replaces it);
	// sub and link are nil while detached.
	src  *stream.Channel
	sub  *stream.Subscription
	link *link
	// owned is set when the task owns src: end-of-stream will come down the
	// edge, so Stop closes it only after the operators drained. An edge on a
	// shared channel (a reused stream, a repository's event channel) is
	// closed first — no end-of-stream ever arrives on the task's account.
	owned bool
	// ended is set once end-of-stream went through a replica forwarder,
	// which nobody else closes.
	ended bool
}

// newEdge creates a detached edge for a consumer at peer and records it
// with its task.
func (s *System) newEdge(t *Task, peer string) *edge {
	e := &edge{sys: s, id: s.edgeSeq.Add(1), task: t, peer: peer}
	if t != nil {
		t.edges = append(t.edges, e)
	}
	return e
}

// into points the edge at a consumer queue. after is the highest sequence
// the consumer is NOT owed; gated puts a cursor in front of the queue.
func (e *edge) into(q *stream.Queue, after uint64, gated bool) {
	e.queue, e.sink, e.cur = q, q.Push, nil
	if gated {
		e.cur = stream.NewCursor(after, e.sink)
	}
}

// attach subscribes the edge to ch and indexes it under ch's ref. When
// the producer lives on another peer the edge joins the link that carries
// ch to its consumer's peer; otherwise it holds a subscription of its
// own, which crosses no link. fromSeq > 0 resumes from the retained
// history, counting retransmissions and releasing the cursor past any
// trimmed prefix; fromSeq 0 attaches at "now" with the cursor floored at
// the attach point.
func (e *edge) attach(ch *stream.Channel, fromSeq uint64) {
	s := e.sys
	from, to := ch.Ref().PeerID, e.peer
	d := landing{e: e, cur: e.cur, sink: e.sink, q: e.queue,
		direct: from == to && e.cur == nil && e.direct()}
	if !ch.ReplayEnabled() {
		fromSeq = 0
	}
	var sub *stream.Subscription
	var l *link
	switch {
	case from != to && !e.local:
		l = s.join(ch, to, d, fromSeq)
	case fromSeq > 0:
		sub = ch.SubscribeFrom(to, fromSeq, d.hook)
		s.resumed(d.cur, fromSeq, sub.Replayed, sub.ReplayFrom)
	default:
		sub = ch.Subscribe(to, d.hook)
		if d.cur != nil {
			d.cur.AdvanceTo(sub.StartSeq)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e.src, e.sub, e.link = ch, sub, l
	e.owned = e.task != nil && e.task.owns(ch)
	if (e.task != nil || e.rep != nil) && !e.ended {
		s.edges[ch.Ref()] = append(s.edges[ch.Ref()], e)
	}
}

// resumed accounts for an attach that resumed from fromSeq: replayed
// retained items were retransmitted, and first is the first sequence the
// channel delivers. When the channel no longer holds the sequences below
// first — its retention buffer trimmed them, or it never held them, as a
// replacement seeded past its predecessor's numbering (coldSeed) — they
// are unrecoverable: the cursor skips them, counting them
// (Cursor.Skipped), and releases anything parked behind them.
func (s *System) resumed(cur *stream.Cursor, fromSeq uint64, replayed int, first uint64) {
	if replayed > 0 {
		s.replayed.Add(uint64(replayed))
	}
	if cur != nil && first > fromSeq {
		cur.SkipTo(first)
	}
}

// landing is where an attachment of an edge puts what arrives, fixed when
// it attaches: a later attach builds a new one, so a delivery still in
// flight on the old subscription never reads fields being rewritten. The
// cursor deduplicates and orders items into the sink; a consumer that
// takes them as calls (direct) is offered them instead.
type landing struct {
	e    *edge
	cur  *stream.Cursor
	sink func(stream.Item)
	q    *stream.Queue
	// direct is set for a same-peer consumer that takes items as calls.
	direct bool
	// after is, for an ungated edge on a link, the channel's sequence when
	// it joined: a publication numbered at or below it predates the edge.
	// A cursor drops those itself, so a gated edge keeps 0.
	after uint64
}

// hook is the channel delivery hook of an edge with a subscription of its
// own.
func (d landing) hook(it stream.Item) { d.land(it) }

// owes reports whether an item that reached the edge's link is the edge's.
func (d landing) owes(it stream.Item) bool { return it.EOS() || it.Seq > d.after }

// land hands one arrived item to the consumer. End-of-stream closes the
// consumer's queue and takes a replica forwarder out of the index.
func (d landing) land(it stream.Item) {
	switch {
	case d.cur != nil && it.EOS():
		d.cur.Terminate(it) // flush parked items before the terminator
	case d.cur != nil:
		d.cur.Offer(it)
	case d.direct:
		d.q.Offer(it)
	default:
		d.sink(it)
	}
	if it.EOS() {
		if d.q != nil {
			d.q.Close()
		}
		if d.e.rep != nil {
			d.e.sys.unindex(d.e, true)
		}
	}
}

// link is the remote half of delivery for one channel and one consumer
// peer: a single subscription whose hook carries each item across the
// network once and lands it at every edge of that peer on the channel —
// Section 5's reuse saving traffic as well as operators. Every edge with
// a producer on another peer delivers through one, alone or not; the
// sweep still repairs each edge on its own (edge.repair).
type link struct {
	sys      *System
	ch       *stream.Channel
	from, to string
	sub      *stream.Subscription
	// ends are the landings of the link's edges. Joins and leaves store a
	// new slice under sys.linkMu; the hook reads whichever is current
	// without a lock, like stream.Channel's subscribers.
	ends atomic.Pointer[[]*landing]
}

// noEnds is the edge list of a link that has none; joins never append to
// it in place.
var noEnds []*landing

// linkKey names a link: the channel and the consumer peer.
type linkKey struct {
	ch *stream.Channel
	to string
}

// deliver is the link's channel hook.
func (l *link) deliver(it stream.Item) { l.carry(it, *l.ends.Load()) }

// carry is the link's one crossing: when any of ends is owed the item, it
// crosses the network once and lands at each that is.
func (l *link) carry(it stream.Item, ends []*landing) {
	i := 0
	for i < len(ends) && !ends[i].owes(it) {
		i++
	}
	if i == len(ends) {
		return
	}
	it, ok := l.sys.Net.Deliver(l.from, l.to, it)
	if !ok {
		return
	}
	for _, d := range ends[i:] {
		if d.owes(it) {
			d.land(it)
		}
	}
}

// join attaches landing d to the link carrying ch to peer to, creating the
// link on the first edge. fromSeq > 0 first sends d alone the retained
// items from fromSeq, each crossing the network again, and, on a closed
// channel, end-of-stream; d then shares the link's deliveries from the
// join on. It returns the link, or nil when the channel has closed and
// there is nothing left to share.
func (s *System) join(ch *stream.Channel, to string, d landing, fromSeq uint64) *link {
	s.linkMu.Lock()
	defer s.linkMu.Unlock()
	key := linkKey{ch, to}
	l := s.links[key]
	if l == nil {
		l = &link{sys: s, ch: ch, from: ch.Ref().PeerID, to: to}
		l.ends.Store(&noEnds)
		l.sub = ch.Subscribe(to, l.deliver)
		s.links[key] = l
	}
	joined, alone := false, []*landing{&d}
	ch.Join(fromSeq, func(at uint64, replay []stream.Item, closed bool) {
		for _, it := range replay {
			l.carry(it, alone)
		}
		switch {
		case fromSeq > 0:
			first := at + 1 // nothing retained: the next publication
			if len(replay) > 0 {
				first = replay[0].Seq
			}
			s.resumed(d.cur, fromSeq, len(replay), first)
			if closed {
				l.carry(stream.EOSItem(ch.Ref().String()), alone)
			}
		case d.cur != nil:
			d.cur.AdvanceTo(at)
		}
		if d.cur == nil {
			d.after = at
		}
		if !closed {
			ends := append(*l.ends.Load(), &d)
			l.ends.Store(&ends)
			joined = true
		}
	})
	if !joined {
		s.dropIfIdle(l)
		return nil
	}
	return l
}

// leave takes edge e off link l; the last edge to leave unsubscribes it.
func (s *System) leave(l *link, e *edge) {
	s.linkMu.Lock()
	defer s.linkMu.Unlock()
	old := *l.ends.Load()
	if len(old) == 1 && old[0].e == e {
		l.ends.Store(&noEnds)
	} else {
		ends := make([]*landing, 0, len(old))
		for _, d := range old {
			if d.e != e {
				ends = append(ends, d)
			}
		}
		l.ends.Store(&ends)
	}
	s.dropIfIdle(l)
}

// dropIfIdle unsubscribes a link no edge uses and forgets it. The caller
// holds linkMu.
func (s *System) dropIfIdle(l *link) {
	if len(*l.ends.Load()) > 0 {
		return
	}
	l.sub.Unsubscribe()
	if key := (linkKey{l.ch, l.to}); s.links[key] == l {
		delete(s.links, key)
	}
}

// direct reports whether the edge hands items to its consumer as a call
// inside the producer's turn (stream.Queue.Offer) when it is attached to a
// producer on the consumer's own peer without a cursor gate: the consumer
// is a stateless σ, Π or ∪, and the producer is known to be stepped by
// that peer's loop — an operator of the plan, or a static WS alerter,
// which the peer's tap fires. Everything else keeps the queue: windows,
// joins and the publisher; a dynamic alerter's output, published from the
// tapped peers' loops; polled and repository alerters; and a reused
// channel, whose producer — another task's operator, a replica forwarder,
// a dynamic alerter — the edge does not know.
func (e *edge) direct() bool {
	if e.consumer == nil {
		return false
	}
	switch e.consumer.Op {
	case algebra.OpSelect, algebra.OpRestruct, algebra.OpUnion:
	default:
		return false
	}
	switch e.child.Op {
	case algebra.OpChannelIn, algebra.OpDynAlerter:
		return false
	case algebra.OpAlerter:
		return e.child.Alerter.Kind == "ws-in" || e.child.Alerter.Kind == "ws-out"
	}
	return true
}

// detach takes the edge off its channel and out of the index without
// closing the consumer's queue: whoever reads it never observes the swap
// that follows.
func (e *edge) detach() {
	sub, l := e.sys.unindex(e, false)
	if sub != nil {
		sub.Detach()
	}
	if l != nil {
		e.sys.leave(l, e)
	}
}

// unindex removes the edge from the index. ended records that
// end-of-stream went through, which leaves the edge on its channel;
// otherwise the edge gives up its subscription or link, handed back for
// the caller to leave.
func (s *System) unindex(e *edge, ended bool) (*stream.Subscription, *link) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sub *stream.Subscription
	var l *link
	if ended {
		e.ended = true
	} else {
		sub, l, e.sub, e.link = e.sub, e.link, nil, nil
	}
	if e.src == nil {
		return sub, l
	}
	ref := e.src.Ref()
	es := s.edges[ref]
	for i, x := range es {
		if x == e {
			es = append(es[:i], es[i+1:]...)
			break
		}
	}
	if s.edges[ref] = es; len(es) == 0 {
		delete(s.edges, ref)
	}
	return sub, l
}

// rebind swaps the producer feeding the edge: the consumer keeps its
// queue and, with the replay layer on, the new subscription resumes from
// the cursor — replaying what the consumer missed, deduplicating what it
// already has — instead of attaching at "now".
func (e *edge) rebind(ch *stream.Channel) {
	e.detach()
	var fromSeq uint64
	if e.cur != nil && ch.ReplayEnabled() {
		fromSeq = e.cur.Next()
	}
	e.attach(ch, fromSeq)
}

// resume restarts an operator input for a consumer instance re-deployed
// at peer: the old queue closes, which ends the old instance's reader,
// and a fresh queue — which resume returns — is fed from fromSeq (0 =
// attach at "now").
func (e *edge) resume(ch *stream.Channel, peer string, fromSeq uint64) *stream.Queue {
	e.close()
	var after uint64
	if fromSeq > 0 {
		after = fromSeq - 1
	}
	e.peer = peer
	e.into(stream.NewQueue(), after, e.sys.replayOn())
	e.attach(ch, fromSeq)
	e.sys.Net.CountTransfer(e.task.Manager, ch.Ref().PeerID, ctrlMsgBytes)
	return e.queue
}

// sever cuts a replica forwarder off an origin whose producer is moving
// away: the old channel's terminal end-of-stream must not reach the
// replica's consumers. A replica of a stale stream forwards nothing, so it
// is stale too — except the one the moved operator adopted as its output.
func (e *edge) sever(adopted stream.Ref) {
	e.detach()
	e.sys.markStale(e.rep.Ref(), adopted)
}

// close ends a task's edge for good: off the channel, out of the index,
// the consumer's queue closed.
func (e *edge) close() {
	e.detach()
	e.queue.Close()
}

// done reports whether the consumer is gone: its queue, or the replica
// channel, has closed.
func (e *edge) done() bool {
	if e.rep != nil {
		return e.rep.Closed()
	}
	return e.queue.Closed()
}

// deliverable reports whether an item sent now from the edge's channel
// would reach its consumer: the channel still has its producer, the
// consumer's host is up and no partition separates the two.
func (e *edge) deliverable() bool {
	ref := e.src.Ref()
	from := ref.PeerID
	if e.local {
		from = e.peer
	}
	return !e.sys.isStale(ref) && e.sys.Net.Alive(e.peer) && e.sys.Net.Reachable(from, e.peer)
}

// repair is the anti-entropy sweep over one edge. It reads the window
// of retained items the cursor may be missing (lost to drop faults or a
// partition) and returns the retransmission, nil when there is nothing
// to repair. Sequences the cursor already delivered or holds parked ahead
// of order are not re-sent — they would only inflate the traffic counters
// to be dropped as duplicates on arrival. Retransmissions pay the link
// like any delivery, but reliably: replay stands in for the acknowledged
// transfer a real deployment would use.
func (e *edge) repair() func() {
	ch, cur := e.src, e.cur
	if cur == nil || !ch.ReplayEnabled() || e.done() || !e.deliverable() {
		return nil
	}
	next, hi := cur.Next(), ch.Seq()
	if next > hi {
		return nil
	}
	items, first := ch.Replay(next, hi)
	return func() {
		cur.SkipTo(first)
		sent := 0
		for _, it := range items {
			if cur.Has(it.Seq) {
				continue
			}
			cur.Offer(e.sys.Net.Send(ch.Ref().PeerID, e.peer, it))
			sent++
		}
		if sent > 0 {
			e.sys.replayed.Add(uint64(sent))
		}
	}
}

// edgesOf returns the live edges consuming one channel in a fixed order:
// replica forwarders as announced, then operator inputs before other
// readers, each by managing peer, task and creation.
func (s *System) edgesOf(ref stream.Ref) []*edge {
	s.mu.Lock()
	es := append([]*edge(nil), s.edges[ref]...)
	s.mu.Unlock()
	key := func(e *edge) (rank int, manager, task string) {
		switch {
		case e.task == nil:
			return 0, "", ""
		case e.consumer != nil:
			return 1, e.task.Manager, e.task.ID
		}
		return 2, e.task.Manager, e.task.ID
	}
	sort.Slice(es, func(i, j int) bool {
		ri, mi, ti := key(es[i])
		rj, mj, tj := key(es[j])
		switch {
		case ri != rj:
			return ri < rj
		case mi != mj:
			return mi < mj
		case ti != tj:
			return ti < tj
		}
		return es[i].id < es[j].id
	})
	return es
}

// syncEdges runs the sweep: replica forwarders first, as announced, so a
// mirror is gap-free before anything reads it, then every edge of every
// task a live manager holds. A forwarder re-publishes synchronously, so
// each is repaired as it is read. The task edges are all read before the
// first is repaired: a re-send wakes its consumer's loop, whose publishes
// must not show up in the window of an edge read later in the same pass.
func (s *System) syncEdges() {
	s.mu.Lock()
	var reps []*edge
	for _, es := range s.edges {
		for _, e := range es {
			if e.rep != nil {
				reps = append(reps, e)
			}
		}
	}
	s.mu.Unlock()
	sort.Slice(reps, func(i, j int) bool { return reps[i].id < reps[j].id })
	for _, e := range reps {
		if resend := e.repair(); resend != nil {
			resend()
		}
	}
	var resends []func()
	s.eachTask(func(_ *Peer, t *Task) {
		for _, e := range t.edges {
			if resend := e.repair(); resend != nil {
				resends = append(resends, resend)
			}
		}
	})
	for _, resend := range resends {
		resend()
	}
}

// lowWater returns the lowest next-undelivered sequence any live consumer
// of the channel still needs. Items at or above it are not yet stable and
// belong in a checkpoint's tail.
func (s *System) lowWater(ref stream.Ref, hi uint64) uint64 {
	low := hi + 1
	for _, e := range s.edgesOf(ref) {
		if e.cur == nil || e.done() {
			continue
		}
		if next := e.cur.Next(); next < low {
			low = next
		}
	}
	return low
}
