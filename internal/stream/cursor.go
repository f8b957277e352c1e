package stream

import (
	"sort"
	"sync"
)

// Cursor is the consumer side of the replay protocol: a per-subscription
// delivery gate that tracks which sequence numbers of a logical stream
// have been handed to the consumer. It deduplicates overlap (a re-bound
// subscription replaying items the consumer already saw), reorders
// ahead-of-sequence arrivals (an item that overtook a dropped
// predecessor waits until the gap is repaired), and exposes the next
// undelivered sequence so re-binding and anti-entropy sweeps know where
// to resume.
//
// Items are handed to the sink strictly in sequence order, under the
// cursor's lock, so concurrent producers (a live subscription racing a
// replay sweep) can never interleave out of order. Unsequenced items
// (Seq == 0) bypass the gate in arrival order.
type Cursor struct {
	mu      sync.Mutex
	next    uint64 // lowest sequence not yet delivered
	pending map[uint64]Item
	dups    uint64
	skipped uint64
	sink    func(Item)
}

// NewCursor returns a cursor that treats every sequence <= after as
// already delivered and hands deliverable items to sink in order.
func NewCursor(after uint64, sink func(Item)) *Cursor {
	return &Cursor{next: after + 1, pending: make(map[uint64]Item), sink: sink}
}

// Offer submits one item. Duplicates are dropped, in-order items (and
// any pending run they unblock) go to the sink, ahead-of-sequence items
// are parked until the gap fills.
func (c *Cursor) Offer(it Item) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seq := it.Seq
	if seq == 0 {
		c.sink(it)
		return
	}
	if seq < c.next {
		c.dups++
		return
	}
	if _, dup := c.pending[seq]; dup {
		c.dups++
		return
	}
	if seq > c.next {
		c.pending[seq] = it
		return
	}
	c.sink(it)
	c.next++
	c.drainLocked()
}

func (c *Cursor) drainLocked() {
	for {
		it, ok := c.pending[c.next]
		if !ok {
			return
		}
		delete(c.pending, c.next)
		c.sink(it)
		c.next++
	}
}

// AdvanceTo marks every sequence <= seq as delivered without delivering
// it — the floor set when a subscription attaches mid-stream (history
// before the attach point is not owed to the consumer).
func (c *Cursor) AdvanceTo(seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq+1 <= c.next {
		return
	}
	for s := range c.pending {
		if s <= seq {
			delete(c.pending, s)
		}
	}
	c.next = seq + 1
	c.drainLocked()
}

// SkipTo abandons the gap [next, seq): the retention buffer trimmed
// those items, so they are unrecoverable. Skipped sequences are counted;
// parked items at or beyond seq become deliverable.
func (c *Cursor) SkipTo(seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq <= c.next {
		return
	}
	c.skipped += seq - c.next
	for s := c.next; s < seq; s++ {
		if _, ok := c.pending[s]; ok {
			c.skipped--
			c.sink(c.pending[s])
			delete(c.pending, s)
		}
	}
	c.next = seq
	c.drainLocked()
}

// Terminate flushes any still-parked items (in sequence order, accepting
// the remaining gaps) and forwards the end-of-stream item — losing
// parked data to an unrepairable gap at teardown would be worse than
// delivering it late.
func (c *Cursor) Terminate(eos Item) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seqs := make([]uint64, 0, len(c.pending))
	for s := range c.pending {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		c.sink(c.pending[s])
		delete(c.pending, s)
		if s >= c.next {
			c.next = s + 1
		}
	}
	c.sink(eos)
}

// Next returns the lowest sequence number not yet delivered — where a
// re-bound subscription or a repair sweep should resume.
func (c *Cursor) Next() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.next
}

// Has reports whether the cursor already holds the sequence — delivered
// (below Next) or parked ahead-of-order. Repair sweeps use it to
// retransmit only the genuinely missing sequences.
func (c *Cursor) Has(seq uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq < c.next {
		return true
	}
	_, ok := c.pending[seq]
	return ok
}

// Pending returns the number of parked ahead-of-sequence items.
func (c *Cursor) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Dups returns the number of duplicate deliveries suppressed.
func (c *Cursor) Dups() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dups
}

// Skipped returns the number of sequences abandoned as unrecoverable.
func (c *Cursor) Skipped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.skipped
}
