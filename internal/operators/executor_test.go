package operators

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// probe is a Proc that checks the executor's contract from the inside.
// Its fields are plain on purpose: under -race an Accept, Flush or Sync
// that overlapped another would be reported on them.
type probe struct {
	t        *testing.T
	inAccept atomic.Bool
	accepted int
	last     []uint64 // per input: the latest sequence accepted
	log      []string // "flush" once, at the end
	onAccept func(idx int, it stream.Item)
}

func (p *probe) Name() string { return "probe" }

func (p *probe) Accept(idx int, it stream.Item, emit Emit) {
	if !p.inAccept.CompareAndSwap(false, true) {
		p.t.Error("Accept entered while another Accept was running")
	}
	defer p.inAccept.Store(false)
	if it.Seq <= p.last[idx] {
		p.t.Errorf("input %d: sequence %d accepted after %d", idx, it.Seq, p.last[idx])
	}
	p.last[idx] = it.Seq
	p.accepted++
	if p.onAccept != nil {
		p.onAccept(idx, it)
	}
	emit(it)
}

func (p *probe) Flush(Emit) { p.log = append(p.log, "flush") }

var leaf = xmltree.Elem("x")

func item(seq int) stream.Item { return stream.Item{Tree: leaf, Seq: uint64(seq)} }

func queues(n int) []*stream.Queue {
	qs := make([]*stream.Queue, n)
	for i := range qs {
		qs[i] = stream.NewQueue()
	}
	return qs
}

// TestExecutorAcceptIsSerialAndFIFOPerInput: 8 inputs pushed from 8
// goroutines — Accept is never entered twice at once, every input is
// consumed in its own order, and nothing is lost.
func TestExecutorAcceptIsSerialAndFIFOPerInput(t *testing.T) {
	const inputs, each = 8, 2000
	qs := queues(inputs)
	p := &probe{t: t, last: make([]uint64, inputs)}
	var out atomic.Int64
	h := Run(p, qs, func(it stream.Item) {
		if !it.EOS() {
			out.Add(1)
		}
	})
	var wg sync.WaitGroup
	for _, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 1; s <= each; s++ {
				q.Push(item(s))
			}
			q.Close()
		}()
	}
	wg.Wait()
	h.Wait()
	if p.accepted != inputs*each || out.Load() != inputs*each || h.ItemsIn() != inputs*each || h.ItemsOut() != inputs*each {
		t.Errorf("accepted %d, emitted %d, handle counts %d in / %d out, want %d each",
			p.accepted, out.Load(), h.ItemsIn(), h.ItemsOut(), inputs*each)
	}
	for i := range qs {
		if h.Consumed(i) != each {
			t.Errorf("input %d consumed up to %d, want %d", i, h.Consumed(i), each)
		}
	}
}

// TestExecutorEndOfInputs: items pushed before Run are consumed; an input
// ends on an eos item or on a Close without one; Flush and then exactly
// one eos follow the last input's end, and Done closes after the eos.
func TestExecutorEndOfInputs(t *testing.T) {
	qs := queues(3)
	qs[0].Push(item(1))
	qs[0].Push(item(2))
	qs[0].Push(stream.EOSItem("a"))
	qs[0].Push(item(3)) // beyond eos: never read
	qs[1].Push(item(1))
	qs[1].Close() // no eos item
	p := &probe{t: t, last: make([]uint64, 3)}
	var h *Handle
	var events []string
	started := make(chan struct{})
	h = Run(p, qs, func(it stream.Item) {
		<-started // h is assigned
		if !it.EOS() {
			events = append(events, "item")
			return
		}
		events = append(events, p.log...)
		events = append(events, "eos")
		select {
		case <-h.Done():
			t.Error("Done closed before the eos was emitted")
		default:
		}
	})
	close(started)
	select {
	case <-h.Done():
		t.Fatal("finished with an input still open")
	case <-time.After(10 * time.Millisecond):
	}
	qs[2].Push(item(1))
	qs[2].Close()
	h.Wait()
	want := []string{"item", "item", "item", "item", "flush", "eos"}
	if !slices.Equal(events, want) {
		t.Errorf("events %v, want %v", events, want)
	}
	if n := qs[0].Len(); n != 1 {
		t.Errorf("%d items left beyond the eos of input 0, want 1", n)
	}
}

// TestExecutorSync: mid-stream, Sync's function sees the processor between
// two items — its own count, the handle's counts and the consumed cursor
// agree — and after the operator finished it runs inline.
func TestExecutorSync(t *testing.T) {
	q := stream.NewQueue()
	p := &probe{t: t, last: make([]uint64, 1)}
	emitted := 0 // written by the sink, on the loop
	h := Run(p, []*stream.Queue{q}, func(it stream.Item) {
		if !it.EOS() {
			emitted++
		}
	})
	const total = 20000
	go func() {
		for s := 1; s <= total; s++ {
			q.Push(item(s))
		}
		q.Close()
	}()
	cuts := 0
	for done := false; !done; cuts++ {
		h.Sync(func() {
			if uint64(p.accepted) != h.Consumed(0) || uint64(p.accepted) != h.ItemsIn() || emitted != p.accepted {
				t.Errorf("cut %d: processor at %d, cursor %d, items in %d, emitted %d",
					cuts, p.accepted, h.Consumed(0), h.ItemsIn(), emitted)
			}
			done = p.accepted == total
		})
	}
	h.Wait()
	ran := false
	h.Sync(func() { ran = p.accepted == total && len(p.log) == 1 })
	if !ran {
		t.Error("Sync after the finish did not run inline on the final state")
	}
}

// TestExecutorBacklogYieldsAfterOneBudget: two operators on one executor;
// a 10 000-item backlog on the first delays the second's one item by one
// step's budget, not by the backlog. The loop runs tasks in the order
// they were woken, so the second's item arrives before the backlog that
// wakes the first again.
func TestExecutorBacklogYieldsAfterOneBudget(t *testing.T) {
	ex := NewExecutor(nil)
	busy, quick := stream.NewQueue(), stream.NewQueue()
	gate := make(chan struct{})
	hog := &probe{t: t, last: make([]uint64, 1)}
	hog.onAccept = func(_ int, it stream.Item) {
		if it.Seq == 1 {
			<-gate // the loop is inside the hog's first step
		}
	}
	seenBefore := -1
	other := &probe{t: t, last: make([]uint64, 1)}
	other.onAccept = func(int, stream.Item) { seenBefore = hog.accepted } // same loop: no race
	sink := func(stream.Item) {}
	busy.Push(item(1))
	h1 := ex.Run(hog, []*stream.Queue{busy}, sink)
	h2 := ex.Run(other, []*stream.Queue{quick}, sink)
	for h1.ItemsIn() == 0 {
		runtime.Gosched()
	}
	quick.Push(item(1)) // queued behind the running hog
	for s := 2; s <= 10000; s++ {
		busy.Push(item(s))
	}
	close(gate)
	busy.Close()
	quick.Close()
	h1.Wait()
	h2.Wait()
	if seenBefore < 1 || seenBefore > StepBudget {
		t.Errorf("the neighbour ran after %d items of the backlog, want at most one budget (%d)", seenBefore, StepBudget)
	}
	if st := ex.Stats(); st.Items != 10001 || st.Steps < 10000/StepBudget || st.RunQueueHighWater < 1 {
		t.Errorf("loop stats %+v after 10001 items", st)
	}
}

// TestExecutorRunOnIdleInputsStartsNoLoop: Run over inputs that hold
// nothing wakes nothing, so no loop goroutine starts; the first push
// steps the operator and closing its inputs flushes it.
func TestExecutorRunOnIdleInputsStartsNoLoop(t *testing.T) {
	ex := NewExecutor(nil)
	in := queues(2)
	p := &probe{t: t, last: make([]uint64, 2)}
	out := make(chan stream.Item, 2)
	h := ex.Run(p, in, func(it stream.Item) { out <- it })
	ex.mu.Lock()
	running := ex.running
	ex.mu.Unlock()
	if st := ex.Stats(); running || st.Steps != 0 {
		t.Fatalf("Run over idle inputs: loop running %v, %d steps; want none", running, st.Steps)
	}
	in[1].Push(item(1))
	if it := <-out; it.Seq != 1 {
		t.Fatalf("first output %+v, want the pushed item", it)
	}
	for _, q := range in {
		q.Close()
	}
	h.Wait()
	if it := <-out; !it.EOS() || len(p.log) != 1 {
		t.Fatalf("after Close: %+v, flushes %v; want one flush and eos", it, p.log)
	}
}

// TestExecutorGoroutines: however many operators it runs, an executor is
// one goroutine, and none once the last handle finished.
func TestExecutorGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	ex := NewExecutor(nil)
	var hs []*Handle
	var qs []*stream.Queue
	for i := 0; i < 10; i++ {
		in := queues(3)
		qs = append(qs, in...)
		hs = append(hs, ex.Run(&Union{}, in, func(stream.Item) {}))
	}
	for _, q := range qs {
		q.Push(item(1))
	}
	for hs[9].ItemsIn() < 3 {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base+1 {
		t.Errorf("%d goroutines for 10 operators with 30 inputs, want 1", n-base)
	}
	for _, q := range qs {
		q.Close()
	}
	for _, h := range hs {
		h.Wait()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines left after the last handle finished", n-base)
	}
}

// TestLoopsQuiesceIsExact: a step on loop A wakes a task on loop B, which
// sleeps before it publishes and then needs two more turns. Quiesce returns
// only once all of B's output exists, and at once when nothing is pending.
// out is a plain slice on purpose: under -race a Quiesce that returned
// without ordering itself after B's writes would be reported on it.
func TestLoopsQuiesceIsExact(t *testing.T) {
	loops := NewLoops()
	loops.Quiesce() // nothing pending: returns at once

	a, b := NewExecutor(loops), NewExecutor(loops)
	var out []int
	turns := 0
	tb := b.NewTask(func() bool {
		if turns++; turns%3 == 1 {
			time.Sleep(20 * time.Millisecond)
		}
		out = append(out, turns)
		return turns%3 != 0 // re-queued twice per wake
	})
	ta := a.NewTask(func() bool { tb.Wake(); return false })
	for round := 1; round <= 3; round++ {
		ta.Wake()
		loops.Quiesce()
		if len(out) != 3*round {
			t.Fatalf("round %d: Quiesce returned with %d of %d outputs", round, len(out), 3*round)
		}
	}
}
