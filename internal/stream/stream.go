// Package stream implements the data plane of P2PM: possibly-infinite
// sequences of XML trees terminated by an explicit eos symbol, and
// channels — published streams with a dynamic set of subscribers — which
// are the paper's pub/sub primitive (Section 3.2).
package stream

import (
	"fmt"
	"sync"
	"time"

	"p2pm/internal/xmltree"
)

// Item is one element of an XML stream. An Item with a nil Tree is the
// eos symbol: it terminates the stream.
type Item struct {
	Tree *xmltree.Node
	// Seq is the item's sequence number within its producing stream.
	Seq uint64
	// Source identifies the producing stream as "streamID@peerID".
	Source string
	// Time is the virtual timestamp at which the item was produced.
	Time time.Duration
	// size is the serialized size of sized, stamped by the publishing
	// channel so every later hop reads the count instead of repeating it.
	// The stamp names its tree: an item whose Tree was replaced since is
	// counted afresh.
	sized *xmltree.Node
	size  int
}

// EOS reports whether the item is the end-of-stream symbol.
func (it Item) EOS() bool { return it.Tree == nil }

// Bytes returns the serialized size of the item's tree (0 for eos): the
// publishing channel's stamp when the item carries one, a count otherwise.
func (it Item) Bytes() int {
	switch it.Tree {
	case nil:
		return 0
	case it.sized:
		return it.size
	}
	return it.Tree.SerializedSize()
}

// EOSItem returns an eos item attributed to the given source.
func EOSItem(source string) Item { return Item{Source: source} }

// Ref names a stream as the pair (StreamID, PeerID), which per the paper
// fully identifies it.
type Ref struct {
	StreamID string
	PeerID   string
}

// String renders the paper's s@p notation.
func (r Ref) String() string { return r.StreamID + "@" + r.PeerID }

// ParseRef parses "s@p" notation.
func ParseRef(s string) (Ref, error) {
	for i := 0; i < len(s); i++ {
		if s[i] == '@' {
			if i == 0 || i == len(s)-1 {
				break
			}
			return Ref{StreamID: s[:i], PeerID: s[i+1:]}, nil
		}
	}
	return Ref{}, fmt.Errorf("stream: invalid ref %q (want streamID@peerID)", s)
}

// Queue is an unbounded FIFO of items with a blocking Pop. Operators in a
// deployed plan communicate through queues so a slow consumer never
// deadlocks a fan-out; the high-water mark is tracked so experiments can
// report buffer pressure.
type Queue struct {
	mu   sync.Mutex
	cond *sync.Cond
	// ring holds n items starting at head; its length is zero or a power
	// of two. It grows by doubling and never shrinks, so a queue in steady
	// state allocates nothing.
	ring      []Item
	head, n   int
	closed    bool
	highWater int
	pushed    uint64
}

// NewQueue returns an empty open queue.
func NewQueue() *Queue {
	q := &Queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends an item. Pushing to a closed queue is a no-op (late
// publishers lose the race with Unsubscribe, matching channel semantics).
func (q *Queue) Push(it Item) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	if q.n == len(q.ring) {
		ring := make([]Item, max(8, 2*len(q.ring)))
		copy(ring[copy(ring, q.ring[q.head:]):], q.ring[:q.head])
		q.ring, q.head = ring, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = it
	q.n++
	q.pushed++
	if q.n > q.highWater {
		q.highWater = q.n
	}
	q.cond.Signal()
}

// Pop removes and returns the oldest item, blocking until one is
// available. It returns ok=false once the queue is closed and drained.
func (q *Queue) Pop() (Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.cond.Wait()
	}
	return q.popLocked()
}

// TryPop is a non-blocking Pop; ok is false when the queue is empty or
// closed-and-drained.
func (q *Queue) TryPop() (Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.popLocked()
}

// popLocked takes the head item and zeroes its slot, so the queue does
// not keep a consumed tree reachable.
func (q *Queue) popLocked() (Item, bool) {
	if q.n == 0 {
		return Item{}, false
	}
	it := q.ring[q.head]
	q.ring[q.head] = Item{}
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return it, true
}

// Close marks the queue closed; blocked Pops return.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.cond.Broadcast()
}

// Closed reports whether Close has been called.
func (q *Queue) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Len returns the number of buffered items.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// HighWater returns the maximum number of items ever buffered.
func (q *Queue) HighWater() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.highWater
}

// Pushed returns the total number of items ever pushed.
func (q *Queue) Pushed() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pushed
}

// Drain pops until eos or queue close and returns all non-eos items.
// Intended for tests and examples on finite streams.
func (q *Queue) Drain() []Item {
	var out []Item
	for {
		it, ok := q.Pop()
		if !ok || it.EOS() {
			return out
		}
		out = append(out, it)
	}
}
