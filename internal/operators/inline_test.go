package operators

import (
	"sync"
	"testing"

	"p2pm/internal/stream"
)

// TestInlineDeliveryQueuesBehindBacklog: an item offered while its input
// still holds items takes the queue behind them; once the loop drained
// the input, an offered item is accepted inside Offer. Every item is
// accepted once, in input order (the probe fails on a sequence that goes
// back).
func TestInlineDeliveryQueuesBehindBacklog(t *testing.T) {
	loops := NewLoops()
	ex := NewExecutor(loops)
	q := stream.NewQueue()
	gate := make(chan struct{})
	p := &probe{t: t, last: make([]uint64, 1)}
	p.onAccept = func(_ int, it stream.Item) {
		if it.Seq == 1 {
			<-gate // the loop is inside the step that took item 1
		}
	}
	for s := 1; s <= 100; s++ {
		q.Push(item(s))
	}
	h := ex.Run(p, []*stream.Queue{q}, func(stream.Item) {})
	for s := 101; s <= 110; s++ {
		q.Offer(item(s)) // 2..100 still queued: behind them
	}
	if got := q.Pushed(); got != 110 {
		t.Fatalf("%d items pushed with a backlog queued, want all 110", got)
	}
	close(gate)
	loops.Quiesce()
	if h.ItemsIn() != 110 || q.Len() != 0 {
		t.Fatalf("after the drain: %d accepted, %d queued; want 110, 0", h.ItemsIn(), q.Len())
	}
	q.Offer(item(111))
	if h.ItemsIn() != 111 || q.Pushed() != 110 {
		t.Errorf("an item offered to the drained input: %d accepted, %d pushed; want 111 accepted inside Offer, 110 pushed", h.ItemsIn(), q.Pushed())
	}
	q.Offer(stream.EOSItem("src")) // eos always takes the queue
	h.Wait()
	if q.Pushed() != 111 || p.accepted != 111 || len(p.log) != 1 {
		t.Errorf("at the end: %d pushed, %d accepted, log %v; want 111, 111, one flush", q.Pushed(), p.accepted, p.log)
	}
}

// TestInlineDeliveryAcceptNeverConcurrent: 8 producers offer into the 8
// inputs of one operator from 8 goroutines while its loop steps whatever
// landed in a queue. Accept is never entered twice at once (the probe
// checks, and -race watches its plain fields), each input is consumed in
// its own order, and nothing is lost.
func TestInlineDeliveryAcceptNeverConcurrent(t *testing.T) {
	const inputs, each = 8, 2000
	qs := queues(inputs)
	p := &probe{t: t, last: make([]uint64, inputs)}
	emitted := 0 // written by the sink, under the handle's mutex
	h := Run(p, qs, func(it stream.Item) {
		if !it.EOS() {
			emitted++
		}
	})
	var wg sync.WaitGroup
	for _, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 1; s <= each; s++ {
				q.Offer(item(s))
			}
			q.Offer(stream.EOSItem("src"))
		}()
	}
	wg.Wait()
	h.Wait()
	if p.accepted != inputs*each || emitted != inputs*each || h.ItemsIn() != inputs*each {
		t.Errorf("accepted %d, emitted %d, items in %d; want %d each", p.accepted, emitted, h.ItemsIn(), inputs*each)
	}
	for i := range qs {
		if h.Consumed(i) != each {
			t.Errorf("input %d consumed up to %d, want %d", i, h.Consumed(i), each)
		}
	}
}

// TestInlineDeliverySyncCut: Sync's function sees a consistent cut while
// items are accepted inside Offer on another goroutine: the processor's
// count, the handle's counts, the consumed cursor and the emissions agree.
func TestInlineDeliverySyncCut(t *testing.T) {
	q := stream.NewQueue()
	p := &probe{t: t, last: make([]uint64, 1)}
	emitted := 0
	h := Run(p, []*stream.Queue{q}, func(it stream.Item) {
		if !it.EOS() {
			emitted++
		}
	})
	const total = 20000
	go func() {
		for s := 1; s <= total; s++ {
			q.Offer(item(s))
		}
		q.Offer(stream.EOSItem("src"))
	}()
	for done := false; !done; {
		h.Sync(func() {
			if uint64(p.accepted) != h.Consumed(0) || uint64(p.accepted) != h.ItemsIn() || emitted != p.accepted {
				t.Errorf("cut: processor at %d, cursor %d, items in %d, emitted %d",
					p.accepted, h.Consumed(0), h.ItemsIn(), emitted)
			}
			done = p.accepted == total
		})
	}
	h.Wait()
}
