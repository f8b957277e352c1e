package stream

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"p2pm/internal/xmltree"
)

// TestPublishOrderDeterministic pins multicast order: subscribers receive
// each item in ascending subscription id, whatever was unsubscribed or
// detached in between and however often the run is repeated.
func TestPublishOrderDeterministic(t *testing.T) {
	want := []string{"s0", "s1", "s3", "s5", "s6", "s7", "s8", "s9", "late"}
	for run := 0; run < 20; run++ {
		ch := NewChannel("p", "s")
		var got []string
		delivered := 0
		record := func(name string) func(Item) {
			return func(Item) {
				got = append(got, name)
				delivered++
			}
		}
		subs := make([]*Subscription, 10)
		for i := range subs {
			name := "s" + string(rune('0'+i))
			subs[i] = ch.Subscribe(name, record(name))
		}
		subs[4].Unsubscribe()
		subs[2].Detach()
		subs[2].Detach() // removing twice is harmless
		ch.Subscribe("late", record("late"))
		if n := ch.SubscriberCount(); n != len(want) {
			t.Fatalf("SubscriberCount = %d, want %d", n, len(want))
		}
		for i := 0; i < 100; i++ {
			got = got[:0]
			ch.Publish(item("x"))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d publish %d: delivery order %v, want %v", run, i, got, want)
			}
		}
		if delivered != 100*len(want) {
			t.Errorf("%d items delivered, want %d", delivered, 100*len(want))
		}
	}
}

// TestPublishSnapshotSurvivesUnsubscribe: a subscriber that removes itself
// (or a sibling) from inside a deliver hook does not disturb the multicast
// in flight — the copy-on-write contract.
func TestPublishSnapshotSurvivesUnsubscribe(t *testing.T) {
	ch := NewChannel("p", "s")
	var first, last *Subscription
	delivered := 0
	first = ch.Subscribe("first", func(Item) {
		delivered++
		last.Detach()
		first.Detach()
	})
	ch.Subscribe("mid", nil)
	last = ch.Subscribe("last", func(Item) { delivered++ })
	ch.Publish(item("x"))
	if delivered != 2 {
		t.Errorf("deliveries of the publish in flight = %d, want 2", delivered)
	}
	ch.Publish(item("y"))
	if delivered != 2 || ch.SubscriberCount() != 1 {
		t.Errorf("after detach: %d deliveries, %d subscribers; want 2 and 1", delivered, ch.SubscriberCount())
	}
}

// TestItemBytesStamp: publish stamps the counted size, the replay ring
// keeps the stamp, and an item whose tree was swapped is counted afresh.
func TestItemBytesStamp(t *testing.T) {
	ch := NewChannel("p", "s")
	ch.EnableReplay(4)
	sub := ch.Subscribe("c", nil)
	tree := xmltree.ElemText("a", `x<y & "z"`).SetAttr("k", `"v"`)
	ch.Publish(Item{Tree: tree})
	got, _ := sub.Queue.Pop()
	retained, _ := ch.Replay(1, 1)
	for _, it := range []Item{got, retained[0]} {
		if it.sized != tree || it.size != len(tree.String()) || it.Bytes() != it.size {
			t.Errorf("stamp = (%p, %d), Bytes() = %d; want (%p, %d)", it.sized, it.size, it.Bytes(), tree, len(tree.String()))
		}
	}
	if ch.Volume() != uint64(len(tree.String())) {
		t.Errorf("Volume = %d, want %d", ch.Volume(), len(tree.String()))
	}
	got.Tree = xmltree.Elem("other")
	if got.Bytes() != len("<other/>") {
		t.Errorf("Bytes() after replacing Tree = %d, want %d", got.Bytes(), len("<other/>"))
	}
	if (Item{}).Bytes() != 0 || (Item{Tree: tree}).Bytes() != len(tree.String()) {
		t.Error("Bytes() of eos must be 0, of an unstamped item a fresh count")
	}
}

// TestQueueReleasesPopped: a popped tree must become collectable while
// the queue lives on and still holds later items.
func TestQueueReleasesPopped(t *testing.T) {
	q := NewQueue()
	freed := make(chan struct{})
	func() {
		tree := xmltree.Elem("popped")
		runtime.SetFinalizer(tree, func(*xmltree.Node) { close(freed) })
		q.Push(Item{Tree: tree})
	}()
	q.Push(item("kept"))
	if it, ok := q.Pop(); !ok || it.Tree.Label != "popped" {
		t.Fatal("Pop did not return the first item")
	}
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(q)
			return
		case <-deadline:
			t.Fatal("popped tree still reachable from the queue")
		case <-time.After(time.Millisecond): // let the finalizer goroutine run
		}
	}
}

// sliceQueue is the append/re-slice queue the ring replaced, kept as the
// reference for Len/HighWater/Pushed and FIFO order.
type sliceQueue struct {
	items     []Item
	closed    bool
	highWater int
	pushed    uint64
}

func (q *sliceQueue) push(it Item) {
	if q.closed {
		return
	}
	q.items = append(q.items, it)
	q.pushed++
	if len(q.items) > q.highWater {
		q.highWater = len(q.items)
	}
}

func (q *sliceQueue) tryPop() (Item, bool) {
	if len(q.items) == 0 {
		return Item{}, false
	}
	it := q.items[0]
	q.items = q.items[1:]
	return it, true
}

// TestQueueRingMatchesSlice drives the ring and the reference through the
// same random script — bursts that force growth while the ring is wrapped,
// drains to empty, TryPop on empty, Close with items pending, pushes after
// Close — and compares every observable after every step.
func TestQueueRingMatchesSlice(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q, ref := NewQueue(), &sliceQueue{}
		next := uint64(0)
		check := func(step int) {
			t.Helper()
			if q.Len() != len(ref.items) || q.HighWater() != ref.highWater || q.Pushed() != ref.pushed || q.Closed() != ref.closed {
				t.Fatalf("seed %d step %d: ring len/high/pushed/closed = %d/%d/%d/%v, slice %d/%d/%d/%v", seed, step,
					q.Len(), q.HighWater(), q.Pushed(), q.Closed(), len(ref.items), ref.highWater, ref.pushed, ref.closed)
			}
		}
		for step := 0; step < 3000; step++ {
			if step == 2500 {
				q.Close()
				ref.closed = true
			}
			burst := 1 + rng.Intn(1+rng.Intn(40))
			for i := 0; i < burst; i++ {
				if rng.Intn(100) < 52 {
					next++
					q.Push(Item{Seq: next})
					ref.push(Item{Seq: next})
					continue
				}
				got, ok := q.TryPop()
				want, wantOK := ref.tryPop()
				if ok != wantOK || got.Seq != want.Seq {
					t.Fatalf("seed %d step %d: TryPop = %d,%v, slice queue %d,%v", seed, step, got.Seq, ok, want.Seq, wantOK)
				}
			}
			check(step)
		}
		// Closed with items pending: Pop drains them in order, then reports !ok.
		for {
			got, ok := q.Pop()
			want, wantOK := ref.tryPop()
			if ok != wantOK || got.Seq != want.Seq {
				t.Fatalf("seed %d drain: Pop = %d,%v, slice queue %d,%v", seed, got.Seq, ok, want.Seq, wantOK)
			}
			if !ok {
				break
			}
		}
		for i, slot := range q.ring.buf {
			if slot != (Item{}) {
				t.Fatalf("seed %d: drained ring still holds %v in slot %d", seed, slot, i)
			}
		}
	}
}

// TestDataPathAllocs pins the per-item allocation count of the hop every
// item takes: publish to an in-memory subscriber and pop.
func TestDataPathAllocs(t *testing.T) {
	tree := xmltree.ElemText("alert", "payload").SetAttr("callId", "call-1")

	q := NewQueue()
	for i := 0; i < 3; i++ { // leave the ring wrapped, not at slot 0
		q.Push(Item{Tree: tree})
	}
	if a := testing.AllocsPerRun(1000, func() {
		q.Push(Item{Tree: tree})
		q.TryPop()
	}); a != 0 {
		t.Errorf("Queue push+pop in steady state: %v allocs, want 0", a)
	}

	ch := NewChannel("p", "s")
	ch.EnableReplay(16)
	sub := ch.Subscribe("c", nil)
	ch.Publish(Item{Tree: tree}) // first push sizes the ring
	sub.Queue.TryPop()
	if a := testing.AllocsPerRun(1000, func() {
		ch.Publish(Item{Tree: tree})
		sub.Queue.TryPop()
	}); a != 0 {
		t.Errorf("Publish+pop with one in-memory subscriber: %v allocs, want 0", a)
	}
	// Without a consumer the only allocation left is the ring doubling.
	if a := testing.AllocsPerRun(1000, func() { ch.Publish(Item{Tree: tree}) }); a > 1 {
		t.Errorf("Publish to a growing queue: %v allocs, want <= 1 (amortised ring growth)", a)
	}
}
