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

// Ring is a FIFO buffer: a power-of-two ring that doubles when full and
// never shrinks, so in steady state a push and a pop allocate nothing, and
// that zeroes a slot when it is popped, so it keeps nothing it handed out
// reachable. Its owner's lock guards it.
type Ring[T any] struct {
	buf     []T
	head, n int
	high    int
}

// Push appends v.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		buf := make([]T, max(8, 2*len(r.buf)))
		copy(buf[copy(buf, r.buf[r.head:]):], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	if r.n++; r.n > r.high {
		r.high = r.n
	}
}

// Pop removes and returns the oldest element; ok is false when there is
// none.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	var zero T
	v, r.buf[r.head] = r.buf[r.head], zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v, true
}

// At returns the i-th oldest element, 0 <= i < Len().
func (r *Ring[T]) At(i int) T { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// Set replaces the i-th oldest element, 0 <= i < Len().
func (r *Ring[T]) Set(i int, v T) { r.buf[(r.head+i)&(len(r.buf)-1)] = v }

// Len returns the number of buffered elements.
func (r *Ring[T]) Len() int { return r.n }

// HighWater returns the most elements the ring ever held.
func (r *Ring[T]) HighWater() int { return r.high }

// Queue is an unbounded FIFO of items with a blocking Pop. Operators in a
// deployed plan communicate through queues so a slow consumer never
// deadlocks a fan-out; the high-water mark is tracked so experiments can
// report buffer pressure.
type Queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ring   Ring[Item]
	closed bool
	pushed uint64
	reader Reader // see OnReady
}

// A Reader is the event loop that reads a queue (OnReady). It is told
// when the queue has something to come back for, and it can take an item
// the queue is offered (Offer) on the producer's goroutine, instead of
// the item waiting in the queue.
type Reader interface {
	// Ready is the queue's one ready notification, called outside the
	// queue's lock each time the queue goes from empty to non-empty and
	// when it closes — the edges at which a reader that found it empty
	// (Take) has something to come back for.
	Ready()
	// Direct processes it as q's next item, after every item already
	// taken off q, and reports whether it did; false leaves the item to be
	// pushed. Offer calls it only while q holds nothing.
	Direct(q *Queue, it Item) bool
}

// NewQueue returns an empty open queue.
func NewQueue() *Queue {
	q := &Queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// OnReady registers the queue's reader: an event loop reads the queue
// this way, told when it is ready and handed what it is offered, instead
// of parking a goroutine in Pop.
func (q *Queue) OnReady(r Reader) {
	q.mu.Lock()
	q.reader = r
	q.mu.Unlock()
}

// Offer hands it to the queue's reader when the queue is open and empty
// and the reader takes it (Direct), and pushes it otherwise: behind what
// is queued, so the reader still sees the queue's order, and always for
// eos, which the reader takes off the queue like any end of input. The
// caller must be the queue's only producer, so that nothing is pushed
// between the emptiness check and Direct.
func (q *Queue) Offer(it Item) {
	q.mu.Lock()
	r := q.reader
	if q.ring.Len() > 0 || q.closed || it.EOS() {
		r = nil
	}
	q.mu.Unlock()
	if r == nil || !r.Direct(q, it) {
		q.Push(it)
	}
}

// Push appends an item. Pushing to a closed queue is a no-op (late
// publishers lose the race with Unsubscribe, matching channel semantics).
func (q *Queue) Push(it Item) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.ring.Push(it)
	q.pushed++
	var r Reader
	if q.ring.Len() == 1 {
		r = q.reader
	}
	q.cond.Signal()
	q.mu.Unlock()
	if r != nil {
		r.Ready()
	}
}

// Pop removes and returns the oldest item, blocking until one is
// available. It returns ok=false once the queue is closed and drained.
func (q *Queue) Pop() (Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.ring.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	return q.ring.Pop()
}

// TryPop is a non-blocking Pop; ok is false when the queue is empty or
// closed-and-drained.
func (q *Queue) TryPop() (Item, bool) {
	it, ok, _ := q.Take()
	return it, ok
}

// Take is TryPop that tells an empty queue from an ended one: with ok
// false, ended reports that the queue is closed and drained, so nothing
// will ever follow.
func (q *Queue) Take() (it Item, ok, ended bool) {
	q.mu.Lock()
	it, ok = q.ring.Pop()
	ended = !ok && q.closed
	q.mu.Unlock()
	return it, ok, ended
}

// Close marks the queue closed; blocked Pops return.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	r := q.reader
	q.cond.Broadcast()
	q.mu.Unlock()
	if r != nil {
		r.Ready()
	}
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
	return q.ring.Len()
}

// HighWater returns the maximum number of items ever buffered.
func (q *Queue) HighWater() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ring.HighWater()
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
