package stream

import (
	"math"
	"math/bits"
	"runtime"
	"testing"
	"time"

	"p2pm/internal/xmltree"
)

// refReplayBuffer is the whole-array retention buffer the ring replaced,
// kept verbatim as the reference for FuzzReplayRing: slots allocated up
// front, indexed by seq % capacity.
type refReplayBuffer struct {
	capacity int
	source   string // the owning channel's name, the Source of every retained item
	slots    []retained
	lo, hi   uint64 // retained contiguous seq range; lo == 0 means empty
	trimmed  uint64
}

func newRefReplayBuffer(capacity int, source string) *refReplayBuffer {
	return &refReplayBuffer{capacity: capacity, source: source, slots: make([]retained, capacity)}
}

func (b *refReplayBuffer) slot(seq uint64) int { return int(seq % uint64(b.capacity)) }

// add records one published item. Re-publication of a retained sequence
// number (a restored operator re-emitting its post-checkpoint suffix)
// overwrites the slot in place; a forward jump (a re-seeded channel)
// resets the window.
func (b *refReplayBuffer) add(it Item) {
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
func (b *refReplayBuffer) slice(from, to uint64) ([]Item, uint64) {
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

func (b *refReplayBuffer) len() int {
	if b.lo == 0 {
		return 0
	}
	return int(b.hi - b.lo + 1)
}

// replayCaps are the retention bounds FuzzReplayRing picks from: below the
// ring's first size, odd, exactly its first size, not a power of two, and
// the churn default.
var replayCaps = [...]int{1, 3, 8, 1000, 4096}

// Ops of a FuzzReplayRing script. Every op is three bytes: op, a, b.
const (
	opAppend    = iota // 1 + (a<<8|b)%8192 in-order adds
	opOverwrite        // re-publish the retained seq lo + (a<<8|b)%len
	opTooOld           // add a seq below lo (seq 0 when lo is 1)
	opJump             // add hi + 2 + a: a discontinuous forward jump
	opSlice            // Replay(from, to): from around lo or hi by a, to by b
	numOps
)

// FuzzReplayRing drives the channel's ring-backed retention buffer and the
// whole-array reference through the same decoded script — in-order
// bursts, overwrites inside the window, too-old adds, forward jumps and
// Replay over arbitrary ranges — and compares every observable after
// every op: the retained items (seq, tree, time, size, source), Replay's
// first, ReplayTrimmed and ReplayLen. It also checks that the ring's
// buffer references no tree outside the retained window and stays within
// max(8, nextPow2(capacity)) slots.
func FuzzReplayRing(f *testing.F) {
	// capacity 1000: 5 adds, a jump (the ring empties, its head at 5),
	// then 20 adds: the ring doubles from 8 slots while wrapped.
	f.Add([]byte{3, opAppend, 0, 4, opJump, 0, 0, opAppend, 0, 19, opSlice, 0, 1})
	// capacity 3: reach the bound, jump right after it, trim again.
	f.Add([]byte{1, opAppend, 0, 2, opJump, 5, 0, opAppend, 0, 6, opSlice, 0, 1, opOverwrite, 0, 1})
	// capacity 4096: fill to the bound, jump right after it, refill past it.
	f.Add([]byte{4, opAppend, 15, 255, opSlice, 0, 1, opJump, 0, 0, opAppend, 16, 10, opTooOld, 0, 3, opSlice, 20, 201})
	// capacity 8: trims wrap the ring; overwrite, too old, inverted ranges.
	f.Add([]byte{2, opAppend, 0, 30, opOverwrite, 0, 3, opTooOld, 0, 0, opSlice, 131, 120, opSlice, 200, 3})
	// capacity 1: every add trims; seq 0 is never retained.
	f.Add([]byte{0, opTooOld, 0, 0, opAppend, 0, 5, opOverwrite, 0, 0, opTooOld, 1, 0, opSlice, 0, 255})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 1+3*64 {
			return
		}
		capacity := replayCaps[int(script[0])%len(replayCaps)]
		ch := NewChannel("p", "s")
		ch.EnableReplay(capacity)
		b := ch.replay
		ref := newRefReplayBuffer(capacity, ch.name)
		stamp := 0
		add := func(seq uint64) {
			stamp++
			tree := xmltree.Elem("e")
			it := Item{Tree: tree, Seq: seq, Time: time.Duration(stamp), sized: tree, size: stamp}
			b.add(it)
			ref.add(it)
		}
		for pc := 1; pc+3 <= len(script); pc += 3 {
			op, x, y := int(script[pc])%numOps, script[pc+1], script[pc+2]
			n := uint64(ref.len())
			switch op {
			case opAppend:
				for i := 0; i <= (int(x)<<8|int(y))%8192; i++ {
					add(ref.hi + 1)
				}
			case opOverwrite:
				if n > 0 {
					add(ref.lo + uint64(int(x)<<8|int(y))%n)
				}
			case opTooOld:
				if ref.lo > 0 {
					add(ref.lo - 1 - uint64(x)%ref.lo)
				}
			case opJump:
				add(ref.hi + 2 + uint64(x))
			case opSlice:
				from, to := around(ref, x), around(ref, y)
				got, gotFirst := ch.Replay(from, to)
				if to+1 < from {
					// The reference's make(_, 0, to-first+1) panics on an
					// inverted range inside the window; the ring returns nothing.
					if len(got) != 0 || gotFirst != max(from, ref.lo) {
						t.Fatalf("op %d: Replay(%d, %d) = %d items from %d, want none from %d", pc/3, from, to, len(got), gotFirst, max(from, ref.lo))
					}
					break
				}
				want, wantFirst := ref.slice(from, to)
				sameItems(t, pc/3, "Replay", got, want)
				if gotFirst != wantFirst {
					t.Fatalf("op %d: Replay(%d, %d) first = %d, reference %d", pc/3, from, to, gotFirst, wantFirst)
				}
			}
			got, gotFirst := ch.Replay(0, math.MaxUint64)
			want, wantFirst := ref.slice(0, math.MaxUint64)
			sameItems(t, pc/3, "retained", got, want)
			if gotFirst != wantFirst || ch.ReplayLen() != ref.len() || ch.ReplayTrimmed() != ref.trimmed {
				t.Fatalf("op %d: first/len/trimmed = %d/%d/%d, reference %d/%d/%d", pc/3,
					gotFirst, ch.ReplayLen(), ch.ReplayTrimmed(), wantFirst, ref.len(), ref.trimmed)
			}
			buf := b.ring.buf
			if len(buf) > max(8, 1<<bits.Len(uint(capacity-1))) {
				t.Fatalf("op %d: capacity %d holds a %d-slot ring", pc/3, capacity, len(buf))
			}
			for i, r := range buf {
				if (i-b.ring.head)&(len(buf)-1) >= b.ring.Len() && r != (retained{}) {
					t.Fatalf("op %d: slot %d outside the retained window still holds a tree", pc/3, i)
				}
			}
		}
	})
}

// around decodes a Replay bound near the reference's window: x's low bit
// picks lo or hi, the rest an offset in [-64, 63], floored at 0.
func around(ref *refReplayBuffer, x byte) uint64 {
	base := ref.lo
	if x&1 == 1 {
		base = ref.hi
	}
	off := int64(x>>1) - 64
	if off < 0 && uint64(-off) > base {
		return 0
	}
	return uint64(int64(base) + off)
}

func sameItems(t *testing.T, op int, what string, got, want []Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("op %d: %s holds %d items, reference %d", op, what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("op %d: %s item %d = %+v, reference %+v", op, what, i, got[i], want[i])
		}
	}
}

// TestReplayRetentionMemory pins what retention costs before and as the
// channel publishes: EnableReplay(4096) allocates no slot up front, and
// after n publishes the ring holds at most max(8, nextPow2(n)) slots
// while retaining exactly min(n, capacity) items.
func TestReplayRetentionMemory(t *testing.T) {
	const channels = 100
	chans := make([]*Channel, channels)
	for i := range chans {
		chans[i] = NewChannel("p", "s")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ch := range chans {
		ch.EnableReplay(4096)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / channels; per >= 1024 {
		t.Errorf("EnableReplay(4096) before the first publish: %d B per channel, want < 1 KiB", per)
	}

	tree := xmltree.Elem("e")
	for _, capacity := range []int{1000, 4096} {
		for _, n := range []int{0, 1, 8, 9, 100, 513, 1000, 4096, 5000} {
			ch := NewChannel("p", "s")
			ch.EnableReplay(capacity)
			for i := 0; i < n; i++ {
				ch.Publish(Item{Tree: tree})
			}
			slots := max(8, 1<<bits.Len(uint(min(n, capacity)-1)))
			if n == 0 {
				slots = 0
			}
			if got := len(ch.replay.ring.buf); got > slots {
				t.Errorf("capacity %d after %d publishes: %d slots, want <= %d", capacity, n, got, slots)
			}
			if got := ch.ReplayLen(); got != min(n, capacity) {
				t.Errorf("capacity %d after %d publishes: ReplayLen %d, want %d", capacity, n, got, min(n, capacity))
			}
		}
	}
}
