package stream

import (
	"sort"
	"sync"
)

// Channel is the paper's publication primitive: a tuple
// (peerID, streamID, subscribers). Publishing an item multicasts it to
// every current subscriber; subscribing to a channel is how a peer
// expresses "the will to receive the data published by the channel"
// (Section 3.2). A Channel is also how deployed plan fragments on
// different peers are stitched together (channels X, Y, M of Figure 4).
type Channel struct {
	ref  Ref
	name string // ref.String(), the Source stamped on every item

	mu sync.Mutex
	// subs is ordered by subscription id. Subscribing appends, removing
	// builds a new slice: the elements of a slice read under mu never
	// change, so publish multicasts over it without copying, in the same
	// order every run.
	subs      []*subscriber
	nextSub   int
	seq       uint64
	closed    bool
	published uint64
	bytes     uint64
	replay    *replayBuffer
}

type subscriber struct {
	id   int
	name string
	// A subscriber is a queue or a delivery hook, which takes every
	// item, end-of-stream included, in place of a queue.
	queue   *Queue
	deliver func(Item)
}

// Subscription is a live subscription to a channel.
type Subscription struct {
	ch   *Channel
	id   int
	Name string
	// Queue receives the published items; nil when a delivery hook takes
	// them.
	Queue *Queue
	// StartSeq is the channel's sequence number at the moment the
	// subscription attached: items up to StartSeq predate it and are not
	// owed to this subscriber.
	StartSeq uint64
	// Replayed counts retained items retransmitted at attach time
	// (SubscribeFrom).
	Replayed int
	// ReplayFrom is the first sequence SubscribeFrom delivers from the
	// requested start on — greater than the start when the channel no
	// longer holds the prefix: the bounded retention buffer trimmed it,
	// or the channel never held it (a replacement seeded past it).
	ReplayFrom uint64
}

// NewChannel creates a channel identified by (peerID, streamID).
func NewChannel(peerID, streamID string) *Channel {
	ref := Ref{StreamID: streamID, PeerID: peerID}
	return &Channel{ref: ref, name: ref.String()}
}

// Ref returns the channel's (streamID, peerID) identity.
func (c *Channel) Ref() Ref { return c.ref }

// Publish multicasts the item to all subscribers, stamping the channel's
// own sequence number and source. Publishing eos closes the channel.
func (c *Channel) Publish(it Item) { c.publish(it, false) }

// PublishPreserved multicasts the item keeping its existing sequence
// number. Replica forwarders use it so a replica carries the *original*
// stream's numbering: consumer cursors then stay valid across a failover
// from the original to any replica (the whole point of announced
// replicas, Section 5).
func (c *Channel) PublishPreserved(it Item) { c.publish(it, true) }

func (c *Channel) publish(it Item, preserveSeq bool) {
	// Count before taking the lock: a published tree is immutable, and
	// the walk is the only part of publish whose cost follows the item.
	it.Source = c.name
	if !it.EOS() {
		it.sized, it.size = it.Tree, it.Tree.SerializedSize()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if it.EOS() {
		c.closed = true
	} else {
		if preserveSeq && it.Seq != 0 {
			if it.Seq > c.seq {
				c.seq = it.Seq
			}
		} else {
			c.seq++
			it.Seq = c.seq
		}
		c.published++
		c.bytes += uint64(it.size)
		if c.replay != nil {
			c.replay.add(it)
		}
	}
	targets := c.subs
	c.mu.Unlock()
	// Deliver outside the lock: deliver hooks may simulate latency.
	for _, s := range targets {
		if s.deliver != nil {
			s.deliver(it)
			continue
		}
		s.queue.Push(it)
		if it.EOS() {
			s.queue.Close()
		}
	}
}

// Close publishes eos.
func (c *Channel) Close() { c.Publish(EOSItem(c.name)) }

// Closed reports whether the channel has seen eos.
func (c *Channel) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Published returns the number of non-eos items published.
func (c *Channel) Published() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.published
}

// Volume returns the cumulative serialized size of all published items —
// the "average volume of data in the stream" statistic the paper's
// stream descriptors maintain.
func (c *Channel) Volume() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Subscribe registers a named subscriber and returns its subscription.
// With deliver nil the items go into the subscription's Queue; otherwise
// deliver takes each of them instead, and the subscription has no queue.
func (c *Channel) Subscribe(name string, deliver func(Item)) *Subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.subscribeLocked(name, deliver)
}

func (c *Channel) subscribeLocked(name string, deliver func(Item)) *Subscription {
	sub := &Subscription{ch: c, id: -1, Name: name, StartSeq: c.seq}
	if deliver == nil {
		sub.Queue = NewQueue()
	}
	if c.closed {
		if sub.Queue != nil {
			sub.Queue.Close()
		}
		return sub
	}
	sub.id = c.nextSub
	c.nextSub++
	// Appending in place is safe beside a publish in flight: it writes
	// only beyond the length of the slice that publish read.
	c.subs = append(c.subs, &subscriber{id: sub.id, name: name, queue: sub.Queue, deliver: deliver})
	return sub
}

// remove drops the subscriber with the given id, if still attached.
func (c *Channel) remove(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(id)
}

func (c *Channel) removeLocked(id int) {
	for i, s := range c.subs {
		if s.id == id {
			subs := make([]*subscriber, 0, len(c.subs)-1)
			c.subs = append(append(subs, c.subs[:i]...), c.subs[i+1:]...)
			return
		}
	}
}

// EnableReplay makes the channel retain its last capacity published
// items for retransmission. It must be enabled before items needing
// retention are published (the System enables it at registration).
func (c *Channel) EnableReplay(capacity int) {
	if capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.replay == nil {
		c.replay = &replayBuffer{capacity: capacity, source: c.name}
	}
}

// ReplayEnabled reports whether the channel retains items for replay.
func (c *Channel) ReplayEnabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replay != nil
}

// Seq returns the sequence number of the most recently published item.
func (c *Channel) Seq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

// SeedSeq positions the channel's sequence counter — a restored operator
// adopting this channel as its output continues the logical stream's
// numbering from its checkpoint instead of restarting at 1, so
// downstream cursors keep deduplicating correctly. Seeding backwards
// makes the producer re-emit its post-checkpoint suffix under the same
// sequence numbers (consumers that already saw it drop the overlap).
func (c *Channel) SeedSeq(seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq = seq
}

// SeedBuffer pre-loads the retention buffer with already-published items
// of the logical stream — the undelivered output tail carried by an
// operator checkpoint, restored into the replacement channel so
// re-bound consumers can still fetch what the crashed producer had
// published but not delivered. Items must arrive in ascending sequence
// order and are re-attributed to this channel.
func (c *Channel) SeedBuffer(items []Item) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.replay == nil {
		return
	}
	for _, it := range items {
		if it.Seq == 0 || it.Tree == nil {
			continue
		}
		c.replay.add(it)
	}
}

// Replay returns copies of the retained items with sequence numbers in
// [from, to], plus the first sequence actually available — greater than
// from when the bounded buffer already trimmed part of the range.
func (c *Channel) Replay(from, to uint64) ([]Item, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.replay == nil {
		return nil, from
	}
	return c.replay.slice(from, to)
}

// ReplayTrimmed returns the number of items evicted from the retention
// buffer — sequences that can no longer be retransmitted.
func (c *Channel) ReplayTrimmed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.replay == nil {
		return 0
	}
	return c.replay.trimmed
}

// ReplayStart returns the first sequence number the channel can still
// retransmit: its oldest retained item, or the next it will publish when
// it retains none. It is 1 exactly while the channel holds its whole
// history: nothing trimmed, and no numbering seeded past what it holds.
func (c *Channel) ReplayStart() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.replay != nil && c.replay.ring.Len() > 0 {
		return c.replay.lo
	}
	return c.seq + 1
}

// ReplayLen returns how many items the retention buffer currently
// holds (0 without the replay layer) — the occupancy the telemetry
// collector exports.
func (c *Channel) ReplayLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.replay == nil {
		return 0
	}
	return c.replay.ring.Len()
}

// SubscribeFrom registers a subscriber that first receives the retained
// items from sequence fromSeq onwards and then every future publication,
// with no gap and no duplicate in between: replayed items are delivered
// through the subscriber's hook while the channel lock is held, so a
// concurrent Publish cannot interleave. This is how a re-bound consumer
// resumes from its cursor instead of from "now". Delivery hooks must not
// call back into the channel.
func (c *Channel) SubscribeFrom(name string, fromSeq uint64, deliver func(Item)) *Subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	var items []Item
	var first uint64
	if c.replay != nil && fromSeq <= c.seq {
		items, first = c.replay.slice(fromSeq, c.seq)
	}
	wasClosed := c.closed
	c.closed = false // allow attach even to a closed channel: replay, then eos
	sub := c.subscribeLocked(name, deliver)
	c.closed = wasClosed
	sub.StartSeq = 0
	if fromSeq > 0 {
		sub.StartSeq = fromSeq - 1
	}
	sub.Replayed = len(items)
	sub.ReplayFrom = fromSeq
	if len(items) > 0 {
		sub.ReplayFrom = first
	} else if fromSeq <= c.seq {
		sub.ReplayFrom = c.seq + 1 // nothing retained: the next publication
	}
	for _, it := range items {
		if deliver != nil {
			deliver(it)
		} else {
			sub.Queue.Push(it)
		}
	}
	if wasClosed {
		c.removeLocked(sub.id)
		if deliver != nil {
			deliver(EOSItem(c.name))
		} else {
			sub.Queue.Close()
		}
	}
	return sub
}

// Join runs join under the channel lock with the channel's sequence at
// that moment (at), the retained items from fromSeq through at (none for
// fromSeq 0 or without the replay layer) and whether the channel has
// closed. It is how a consumer starts sharing a subscription that is
// already attached — the peer package's link carries one stream to every
// consumer on one peer — with no gap and no duplicate: a publication
// after join is numbered above at, one before it is in replay or not
// owed. One numbered at or below at may still be on its way through the
// shared subscription's hook; the joiner drops it. join must not call
// back into the channel.
func (c *Channel) Join(fromSeq uint64, join func(at uint64, replay []Item, closed bool)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var items []Item
	if c.replay != nil && fromSeq > 0 && fromSeq <= c.seq {
		items, _ = c.replay.slice(fromSeq, c.seq)
	}
	join(c.seq, items, c.closed)
}

// Unsubscribe removes the subscription and closes its queue, if it has
// one.
func (s *Subscription) Unsubscribe() {
	s.ch.remove(s.id)
	if s.Queue != nil {
		s.Queue.Close()
	}
}

// Detach removes the subscription from the channel without closing its
// queue. Failure handling uses it to re-bind a consumer's input queue to
// a replacement producer: the old producer stops feeding the queue, the
// new subscription takes over, and the consumer never observes the swap.
func (s *Subscription) Detach() { s.ch.remove(s.id) }

// Subscribers returns the current subscriber names, sorted.
func (c *Channel) Subscribers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.subs))
	for _, s := range c.subs {
		names = append(names, s.name)
	}
	sort.Strings(names)
	return names
}

// SubscriberCount returns the number of live subscribers.
func (c *Channel) SubscriberCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.subs)
}
