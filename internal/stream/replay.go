package stream

import (
	"time"

	"p2pm/internal/xmltree"
)

// replayBuffer retains the tail of a channel's published items, indexed
// by sequence number, so consumers that re-bind after a producer
// migration (or lose items to link faults) can ask for a retransmission
// instead of accepting a gap. The buffer is bounded: it holds at most
// capacity items covering the contiguous sequence range starting at lo;
// older items are trimmed and show up in the Trimmed counter — the
// retention vs. memory trade-off documented in docs/REPLAY.md. The ring
// grows as the channel publishes, so an idle channel costs no slots.
//
// All methods are called with the owning Channel's lock held.
type replayBuffer struct {
	capacity int
	source   string         // the owning channel's name, the Source of every retained item
	ring     Ring[retained] // item i has sequence number lo+i
	lo       uint64         // first retained seq; 0 while the ring is empty
	trimmed  uint64
}

// retained is what the ring keeps of an Item: the sequence number is the
// position, the source is the buffer's, and size is the count the channel
// stamped at publish.
type retained struct {
	tree *xmltree.Node
	time time.Duration
	size int
}

// add records one published item. Re-publication of a retained sequence
// number (a restored operator re-emitting its post-checkpoint suffix)
// overwrites it in place; a forward jump (a re-seeded channel) resets the
// window.
func (b *replayBuffer) add(it Item) {
	seq, n := it.Seq, uint64(b.ring.Len())
	if seq == 0 || seq < b.lo { // too old: already trimmed
		return
	}
	r := retained{tree: it.Tree, time: it.Time, size: it.Bytes()}
	switch {
	case seq < b.lo+n: // overwrite
		b.ring.Set(int(seq-b.lo), r)
		return
	case n == 0 || seq > b.lo+n: // empty, or a discontinuous jump forward
		for b.ring.Len() > 0 {
			b.ring.Pop()
		}
		b.lo = seq
	case int(n) == b.capacity:
		b.ring.Pop()
		b.lo++
		b.trimmed++
	}
	b.ring.Push(r)
}

// slice returns copies of the retained items with sequence numbers in
// [from, to], plus the first sequence actually available (> from when
// the prefix was trimmed away).
func (b *replayBuffer) slice(from, to uint64) ([]Item, uint64) {
	first, end := max(from, b.lo), b.lo+uint64(b.ring.Len()) // end: one past the newest
	if first >= end || to < first {
		return nil, first
	}
	to = min(to, end-1)
	out := make([]Item, 0, to-first+1)
	for seq := first; seq <= to; seq++ {
		r := b.ring.At(int(seq - b.lo))
		out = append(out, Item{Tree: r.tree, Seq: seq, Source: b.source, Time: r.time, sized: r.tree, size: r.size})
	}
	return out, first
}
