package stream

import (
	"time"

	"p2pm/internal/xmltree"
)

// replayBuffer retains the tail of a channel's published items, indexed
// by sequence number, so consumers that re-bind after a producer
// migration (or lose items to link faults) can ask for a retransmission
// instead of accepting a gap. The buffer is bounded: it holds at most
// cap items covering the contiguous sequence range [lo, hi]; older items
// are trimmed and show up in the Trimmed counter — the retention
// vs. memory trade-off documented in docs/REPLAY.md.
//
// All methods are called with the owning Channel's lock held.
type replayBuffer struct {
	capacity int
	source   string // the owning channel's name, the Source of every retained item
	slots    []retained
	lo, hi   uint64 // retained contiguous seq range; lo == 0 means empty
	trimmed  uint64
}

// retained is what a slot keeps of an Item: the sequence number is the
// slot's position, the source is the buffer's, and size is the count the
// channel stamped at publish. The ring is allocated whole per channel, so
// the slot is kept small.
type retained struct {
	tree *xmltree.Node
	time time.Duration
	size int
}

func newReplayBuffer(capacity int, source string) *replayBuffer {
	return &replayBuffer{capacity: capacity, source: source, slots: make([]retained, capacity)}
}

func (b *replayBuffer) slot(seq uint64) int { return int(seq % uint64(b.capacity)) }

// add records one published item. Re-publication of a retained sequence
// number (a restored operator re-emitting its post-checkpoint suffix)
// overwrites the slot in place; a forward jump (a re-seeded channel)
// resets the window.
func (b *replayBuffer) add(it Item) {
	seq := it.Seq
	if seq == 0 {
		return
	}
	switch {
	case b.lo == 0: // empty
		b.lo, b.hi = seq, seq
	case seq >= b.lo && seq <= b.hi: // overwrite
	case seq == b.hi+1:
		b.hi = seq
		if b.hi-b.lo+1 > uint64(b.capacity) {
			b.trimmed += b.hi - b.lo + 1 - uint64(b.capacity)
			b.lo = b.hi - uint64(b.capacity) + 1
		}
	case seq < b.lo: // too old: the slot was already trimmed
		return
	default: // discontinuous jump forward: restart the window
		b.lo, b.hi = seq, seq
	}
	b.slots[b.slot(seq)] = retained{tree: it.Tree, time: it.Time, size: it.Bytes()}
}

// slice returns copies of the retained items with sequence numbers in
// [from, to], plus the first sequence actually available (> from when
// the prefix was trimmed away).
func (b *replayBuffer) slice(from, to uint64) ([]Item, uint64) {
	if b.lo == 0 || to < b.lo || from > b.hi {
		first := from
		if b.lo > from {
			first = b.lo
		}
		return nil, first
	}
	first := from
	if first < b.lo {
		first = b.lo
	}
	if to > b.hi {
		to = b.hi
	}
	out := make([]Item, 0, to-first+1)
	for seq := first; seq <= to; seq++ {
		r := b.slots[b.slot(seq)]
		out = append(out, Item{Tree: r.tree, Seq: seq, Source: b.source, Time: r.time, sized: r.tree, size: r.size})
	}
	return out, first
}
