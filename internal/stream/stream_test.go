package stream

import (
	"sync"
	"testing"
	"testing/quick"

	"p2pm/internal/xmltree"
)

func item(label string) Item { return Item{Tree: xmltree.Elem(label)} }

func TestQueueFIFO(t *testing.T) {
	q := NewQueue()
	q.Push(item("a"))
	q.Push(item("b"))
	q.Push(item("c"))
	for _, want := range []string{"a", "b", "c"} {
		it, ok := q.Pop()
		if !ok || it.Tree.Label != want {
			t.Fatalf("got %v,%v want %s", it, ok, want)
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d", q.Len())
	}
}

func TestQueueCloseUnblocksPop(t *testing.T) {
	q := NewQueue()
	done := make(chan bool)
	go func() {
		_, ok := q.Pop()
		done <- ok
	}()
	q.Close()
	if ok := <-done; ok {
		t.Error("Pop should report !ok after close")
	}
}

func TestQueueCloseDrainsRemaining(t *testing.T) {
	q := NewQueue()
	q.Push(item("a"))
	q.Close()
	if it, ok := q.Pop(); !ok || it.Tree.Label != "a" {
		t.Fatal("buffered item lost on close")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("expected drained")
	}
	// Pushing after close is dropped.
	q.Push(item("b"))
	if q.Len() != 0 {
		t.Error("push after close should be dropped")
	}
}

func TestQueueHighWaterAndPushed(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 5; i++ {
		q.Push(item("x"))
	}
	q.Pop()
	q.Push(item("x"))
	if q.HighWater() != 5 {
		t.Errorf("highWater = %d", q.HighWater())
	}
	if q.Pushed() != 6 {
		t.Errorf("pushed = %d", q.Pushed())
	}
}

func TestQueueTryPop(t *testing.T) {
	q := NewQueue()
	if _, ok := q.TryPop(); ok {
		t.Error("TryPop on empty should be false")
	}
	q.Push(item("a"))
	if it, ok := q.TryPop(); !ok || it.Tree.Label != "a" {
		t.Error("TryPop should return the item")
	}
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	q := NewQueue()
	const producers, perProducer = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(item("x"))
			}
		}()
	}
	got := make(chan int)
	for c := 0; c < 4; c++ {
		go func() {
			n := 0
			for {
				if _, ok := q.Pop(); !ok {
					got <- n
					return
				}
				n++
			}
		}()
	}
	wg.Wait()
	q.Close()
	total := 0
	for c := 0; c < 4; c++ {
		total += <-got
	}
	if total != producers*perProducer {
		t.Errorf("consumed %d, want %d", total, producers*perProducer)
	}
}

func TestEOS(t *testing.T) {
	if !EOSItem("s@p").EOS() {
		t.Error("EOSItem not EOS")
	}
	if item("a").EOS() {
		t.Error("regular item is EOS")
	}
}

func TestRefParse(t *testing.T) {
	r, err := ParseRef("alertQoS@meteo.com")
	if err != nil || r.StreamID != "alertQoS" || r.PeerID != "meteo.com" {
		t.Fatalf("r=%v err=%v", r, err)
	}
	if r.String() != "alertQoS@meteo.com" {
		t.Errorf("String = %q", r.String())
	}
	for _, bad := range []string{"", "noat", "@p", "s@"} {
		if _, err := ParseRef(bad); err == nil {
			t.Errorf("ParseRef(%q) should fail", bad)
		}
	}
}

func TestChannelMulticast(t *testing.T) {
	ch := NewChannel("meteo.com", "alertQoS")
	s1 := ch.Subscribe("b.com", nil)
	s2 := ch.Subscribe("c.com", nil)
	ch.Publish(item("one"))
	ch.Publish(item("two"))
	ch.Close()
	for _, s := range []*Subscription{s1, s2} {
		got := s.Queue.Drain()
		if len(got) != 2 || got[0].Tree.Label != "one" || got[1].Tree.Label != "two" {
			t.Fatalf("%s got %v", s.Name, got)
		}
		if got[0].Seq != 1 || got[1].Seq != 2 {
			t.Errorf("seq = %d,%d", got[0].Seq, got[1].Seq)
		}
		if got[0].Source != "alertQoS@meteo.com" {
			t.Errorf("source = %q", got[0].Source)
		}
	}
	if ch.Published() != 2 {
		t.Errorf("published = %d", ch.Published())
	}
}

func TestChannelLateSubscriberMissesEarlierItems(t *testing.T) {
	ch := NewChannel("p", "s")
	ch.Publish(item("early"))
	s := ch.Subscribe("late", nil)
	ch.Publish(item("later"))
	ch.Close()
	got := s.Queue.Drain()
	if len(got) != 1 || got[0].Tree.Label != "later" {
		t.Fatalf("got %v", got)
	}
}

func TestChannelUnsubscribe(t *testing.T) {
	ch := NewChannel("p", "s")
	s := ch.Subscribe("x", nil)
	s.Unsubscribe()
	ch.Publish(item("a"))
	if _, ok := s.Queue.Pop(); ok {
		t.Error("unsubscribed queue should be closed and empty")
	}
	if ch.SubscriberCount() != 0 {
		t.Errorf("count = %d", ch.SubscriberCount())
	}
}

func TestChannelSubscribeAfterClose(t *testing.T) {
	ch := NewChannel("p", "s")
	ch.Close()
	s := ch.Subscribe("x", nil)
	if _, ok := s.Queue.Pop(); ok {
		t.Error("subscription to closed channel should be immediately drained")
	}
	// Publish after close is dropped.
	ch.Publish(item("a"))
	if ch.Published() != 0 {
		t.Error("publish after close counted")
	}
}

func TestChannelSubscribersSorted(t *testing.T) {
	ch := NewChannel("p", "s")
	ch.Subscribe("zeta", nil)
	ch.Subscribe("alpha", nil)
	subs := ch.Subscribers()
	if len(subs) != 2 || subs[0] != "alpha" || subs[1] != "zeta" {
		t.Errorf("subs = %v", subs)
	}
}

func TestChannelDeliverHook(t *testing.T) {
	ch := NewChannel("p", "s")
	var delivered []string
	s := ch.Subscribe("x", func(it Item) {
		if it.EOS() {
			delivered = append(delivered, "eos")
		} else {
			delivered = append(delivered, it.Tree.Label)
		}
	})
	ch.Publish(item("a"))
	ch.Close()
	if s.Queue != nil || len(delivered) != 2 || delivered[0] != "a" || delivered[1] != "eos" {
		t.Fatalf("queue %v, delivered %v; want no queue and a, eos", s.Queue, delivered)
	}
	s.Unsubscribe() // no queue to close
}

// Property: for any interleaving of pushes, a single consumer sees exactly
// the pushed count and FIFO order per producer is irrelevant here; we check
// the conservation property.
func TestQuickQueueConservation(t *testing.T) {
	f := func(counts []uint8) bool {
		q := NewQueue()
		total := 0
		var wg sync.WaitGroup
		for _, c := range counts {
			n := int(c % 16)
			total += n
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					q.Push(item("x"))
				}
			}(n)
		}
		wg.Wait()
		q.Close()
		return len(q.Drain()) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueReadyAndTake: the ready notice fires on the push that makes the
// queue non-empty and on Close, not on a push behind a waiting item; Take
// tells an empty queue from an ended one.
func TestQueueReadyAndTake(t *testing.T) {
	q := NewQueue()
	r := &recorder{}
	q.OnReady(r)
	if _, ok, ended := q.Take(); ok || ended {
		t.Fatalf("Take on an empty open queue = ok %v, ended %v", ok, ended)
	}
	q.Push(Item{Tree: xmltree.Elem("a")})
	q.Push(Item{Tree: xmltree.Elem("b")})
	if r.ready != 1 {
		t.Fatalf("ready fired %d times for two pushes into an empty queue, want 1", r.ready)
	}
	q.TryPop()
	q.TryPop()
	q.Push(Item{Tree: xmltree.Elem("c")})
	q.Close()
	q.Close()
	q.Push(Item{Tree: xmltree.Elem("late")}) // dropped
	if r.ready != 3 {
		t.Fatalf("ready fired %d times, want 3 (two fills, one Close)", r.ready)
	}
	if it, ok, ended := q.Take(); !ok || ended || it.Tree.Label != "c" {
		t.Fatalf("Take = %v, ok %v, ended %v; want c before the end", it.Tree, ok, ended)
	}
	if _, ok, ended := q.Take(); ok || !ended {
		t.Fatalf("Take on a closed, drained queue = ok %v, ended %v", ok, ended)
	}
}

// recorder is a Reader that counts its ready notices and takes every
// item it is handed, recording it.
type recorder struct {
	ready int
	took  []string
}

func (r *recorder) Ready() { r.ready++ }

func (r *recorder) Direct(_ *Queue, it Item) bool {
	r.took = append(r.took, it.Tree.Label)
	return true
}

// TestQueueOffer: Offer pushes without a reader, behind queued items and
// for eos; otherwise the reader takes the item and it never enters the
// queue.
func TestQueueOffer(t *testing.T) {
	q := NewQueue()
	q.Offer(Item{Tree: xmltree.Elem("a")}) // no reader yet: queued
	r := &recorder{}
	q.OnReady(r)
	q.Offer(Item{Tree: xmltree.Elem("b")}) // behind a: queued
	q.TryPop()
	q.TryPop()
	q.Offer(Item{Tree: xmltree.Elem("c")}) // empty: taken directly
	q.Offer(EOSItem("src"))
	if len(r.took) != 1 || r.took[0] != "c" {
		t.Fatalf("reader took %v, want [c]", r.took)
	}
	if it, ok := q.TryPop(); !ok || !it.EOS() || q.Len() != 0 {
		t.Fatalf("queue after the offers: %v, ok %v, len %d; want only eos", it, ok, q.Len())
	}
	if q.Pushed() != 3 {
		t.Fatalf("pushed %d, want 3 (a, b, eos)", q.Pushed())
	}
	q.Close()
	q.Offer(Item{Tree: xmltree.Elem("d")}) // closed: the reader is not handed it
	if len(r.took) != 1 {
		t.Fatalf("reader took %v from a closed queue", r.took)
	}
}
