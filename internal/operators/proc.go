// Package operators implements P2PM's stream processors (Section 3.1):
// stateless ones — Filter/Select (σ), Restructure (Π), Union (∪) — and
// stateful ones — Join (⋈), Duplicate-removal, Group. Each processor is a
// Proc run by its host's Executor: one event loop per peer steps the
// operators that have input, one at a time, and each emits into a sink
// (usually a channel publication on the owning peer).
package operators

import (
	"sync"
	"sync/atomic"

	"p2pm/internal/stream"
	"p2pm/internal/telemetry"
)

// Emit receives output items from a processor.
type Emit func(stream.Item)

// Proc is a stream processor. Accept is called serially (one step of the
// host's loop, or one direct delivery, at a time, under the handle's
// mutex), so implementations need no locking for per-processor state.
type Proc interface {
	// Name identifies the operator kind ("Select", "Join", ...).
	Name() string
	// Accept processes one item arriving on input idx.
	Accept(idx int, it stream.Item, emit Emit)
	// Flush is called once, after every input has reached eos.
	Flush(emit Emit)
}

// Handle tracks a running operator.
type Handle struct {
	name string
	done chan struct{}
	in   atomic.Uint64
	out  atomic.Uint64

	task Task
	// mu is held by a step, a direct delivery and Sync: whoever holds it
	// sees the processor between two items.
	//
	// Lock order: producer → consumer. A direct delivery (Direct) runs in
	// its producer's turn — a step of the producing operator, or the tap's
	// step or detach — which holds the producer's lock (a handle's mu, the
	// tap's mu) while it takes the consumer's mu; the consumer's own
	// emissions may take the mu of the next consumer down the plan. Plans
	// are trees, so the order is acyclic. A queue's lock is taken and
	// released without anything else taken under it, and a channel's lock
	// is never held across a delivery that reaches Direct: publish
	// multicasts after releasing it, and the replay gate that delivers
	// under it (Channel.SubscribeFrom) feeds a cursor, which pushes.
	mu       sync.Mutex
	p        Proc
	inputs   []input
	open     int  // inputs that have not ended
	next     int  // where the next step's round-robin starts
	emit     Emit // counts, then sinks
	finished bool
}

// input is one input of a running operator.
type input struct {
	q *stream.Queue // nil once the input ended
	// consumed is the sequence number of the latest item accepted on the
	// input. Binding cursors deliver each input in sequence order, so
	// this is also "every sequence <= consumed has been processed" — the
	// input-side coordinate of a checkpoint.
	consumed atomic.Uint64
}

// Name returns the operator name.
func (h *Handle) Name() string { return h.name }

// Wait blocks until the operator has flushed and emitted eos.
func (h *Handle) Wait() { <-h.done }

// Done returns a channel closed when the operator finishes.
func (h *Handle) Done() <-chan struct{} { return h.done }

// ItemsIn returns the number of items consumed.
func (h *Handle) ItemsIn() uint64 { return h.in.Load() }

// ItemsOut returns the number of items emitted.
func (h *Handle) ItemsOut() uint64 { return h.out.Load() }

// Consumed returns the sequence number of the latest item accepted on
// input idx (0 before any sequenced item arrived).
func (h *Handle) Consumed(idx int) uint64 {
	if idx < 0 || idx >= len(h.inputs) {
		return 0
	}
	return h.inputs[idx].consumed.Load()
}

// SeedConsumed raises the consumed cursor of input idx to seq — a
// restored operator logically "has consumed" everything up to its
// checkpoint, and a checkpoint taken before the replayed suffix drains
// must not record the cursor as 0 (it would desynchronize input and
// output positions). Never lowers the cursor.
func (h *Handle) SeedConsumed(idx int, seq uint64) {
	if idx < 0 || idx >= len(h.inputs) {
		return
	}
	c := &h.inputs[idx].consumed
	for {
		cur := c.Load()
		if seq <= cur || c.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// Sync runs f between two items of the operator: no Accept executes
// concurrently, so f observes a consistent cut of the processor's state,
// its consumed cursors and its emissions — exactly what a checkpoint must
// capture atomically. If the operator already finished, the state is
// final.
func (h *Handle) Sync(f func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f()
}

// StepBudget is how many items one step of a task takes before it goes
// back to the end of the run-queue: what a backlog on one operator can
// delay its neighbours on the loop by.
const StepBudget = 64

// step takes items round-robin across the inputs until all are empty or
// the budget is spent. Once the last input has ended it flushes and emits
// the one eos.
func (h *Handle) step() (more bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.finished {
		return false
	}
	n := 0
	for quiet := 0; quiet < len(h.inputs) && n < StepBudget; h.next = (h.next + 1) % len(h.inputs) {
		i := h.next
		quiet++
		if h.inputs[i].q == nil {
			continue
		}
		it, ok, ended := h.inputs[i].q.Take()
		switch {
		case ok && !it.EOS():
			quiet = 0
			n++
			h.accept(i, it)
		case ok || ended:
			h.inputs[i].q = nil
			h.open--
		}
	}
	h.task.Handled(n)
	if h.open > 0 {
		return n == StepBudget
	}
	h.finished = true
	h.p.Flush(h.emit)
	h.emit(stream.EOSItem(h.name))
	h.task.Release()
	close(h.done)
	return false
}

func (h *Handle) accept(i int, it stream.Item) {
	h.in.Add(1)
	h.SeedConsumed(i, it.Seq) // monotonic raise
	h.p.Accept(i, it, h.emit)
}

// Ready implements stream.Reader: an input that filled or closed puts
// the operator on its loop's run-queue.
func (h *Handle) Ready() { h.task.Wake() }

// Direct implements stream.Reader: an item offered to an empty input
// queue q is accepted on the producer's goroutine, inside the producer's
// turn, instead of a push, a wake and a step of its own. It reports false
// once q's input has ended.
func (h *Handle) Direct(q *stream.Queue, it stream.Item) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.inputs {
		if h.inputs[i].q == q {
			h.accept(i, it)
			h.task.Handled(1)
			return true
		}
	}
	return false
}

// Run starts the processor over the given input queues on an executor of
// its own. The sink receives every output item followed by exactly one
// eos item when all inputs have terminated. Run returns immediately; use
// the Handle to wait.
func Run(p Proc, inputs []*stream.Queue, sink Emit) *Handle {
	return NewExecutor(nil).Run(p, inputs, sink)
}

// Run starts the processor on the executor: as Run, with the operator
// stepped by ex's loop. The loop is woken only when an input already
// holds an item or has closed, or when there is no input; otherwise the
// first push or Close wakes it, so an operator over idle inputs costs its
// loop nothing.
func (ex *Executor) Run(p Proc, inputs []*stream.Queue, sink Emit) *Handle {
	h := &Handle{
		name:   p.Name(),
		done:   make(chan struct{}),
		p:      p,
		inputs: make([]input, len(inputs)),
		open:   len(inputs),
	}
	h.emit = func(it stream.Item) {
		if !it.EOS() {
			h.out.Add(1)
		}
		sink(it)
	}
	h.task = Task{ex: ex, run: h}
	h.task.Hold()
	ready := len(inputs) == 0
	for i, q := range inputs {
		h.inputs[i].q = q
		q.OnReady(h)
		ready = ready || q.Len() > 0 || q.Closed() // pushed, or closed, before OnReady
	}
	if ready {
		h.task.Wake()
	}
	return h
}

// Executor is one host's event loop: a FIFO run-queue of tasks that have
// work — operators with input, a tap with captured exchanges — stepped to
// completion one at a time by a single goroutine. A peer is one machine
// in the model, so parallelism is across executors, not inside one. The
// goroutine starts with the first Wake, parks while the run-queue is
// empty and exits once nothing holds the executor.
type Executor struct {
	mu      sync.Mutex
	wake    *sync.Cond // the loop parks here
	runq    stream.Ring[*Task]
	held    int    // running operators and attached taps
	running bool   // the loop goroutine exists
	parked  bool   // ... and waits on wake for a signal nobody sent yet
	loops   *Loops // counts this loop's work with its siblings'; nil alone

	steps, items, wakes telemetry.Counter
}

// NewExecutor returns an idle executor whose work loops counts — nil for
// one on its own. No goroutine runs until the first Wake.
func NewExecutor(loops *Loops) *Executor {
	ex := &Executor{loops: loops}
	ex.wake = sync.NewCond(&ex.mu)
	return ex
}

// Loops is the executors of one deployment sharing one pending count:
// tasks queued plus steps running, across all of them. Every hand-off
// between loops — an item pushed into another loop's queue, an exchange
// captured for a tap — wakes its target inside the sender's step, so the
// count cannot reach zero while work is in flight: zero means every one
// of the loops is idle and stays so until something outside wakes one.
type Loops struct {
	mu      sync.Mutex
	idle    *sync.Cond
	pending int
}

// NewLoops returns a set of loops with nothing pending.
func NewLoops() *Loops {
	l := &Loops{}
	l.idle = sync.NewCond(&l.mu)
	return l
}

// Quiesce blocks until no task of l's executors is queued or running. It
// is exact and has no timeout. Never call it from a step of one of l's
// executors: that step is itself pending, so it would wait for its own end.
func (l *Loops) Quiesce() {
	l.mu.Lock()
	for l.pending > 0 {
		l.idle.Wait()
	}
	l.mu.Unlock()
}

// add moves the pending count by n; a stand-alone executor has no Loops.
func (l *Loops) add(n int) {
	if l != nil {
		l.mu.Lock()
		if l.pending += n; l.pending == 0 {
			l.idle.Broadcast()
		}
		l.mu.Unlock()
	}
}

// Task is one schedulable unit of an executor.
type Task struct {
	ex     *Executor
	run    stepper
	queued bool // in the run-queue; guarded by ex.mu
}

// stepper is what a task runs on its loop: an operator's Handle, or a
// step function (NewTask).
type stepper interface{ step() (more bool) }

// stepFunc is a step function as a stepper.
type stepFunc func() (more bool)

func (f stepFunc) step() bool { return f() }

// NewTask registers step with the executor. Each Wake is followed by at
// least one call of step on the loop; step reports whether it stopped
// with work left, which queues it again behind the tasks already waiting.
func (ex *Executor) NewTask(step func() (more bool)) *Task {
	return &Task{ex: ex, run: stepFunc(step)}
}

// Handled counts n items a step of the task took.
func (t *Task) Handled(n int) { t.ex.items.Add(uint64(n)) }

// Wake puts the task on the run-queue unless it is there already.
func (t *Task) Wake() {
	ex := t.ex
	ex.mu.Lock()
	if !t.queued {
		ex.enqueue(t)
		switch {
		case !ex.running:
			ex.running = true
			go ex.loop()
		case ex.parked:
			ex.unpark()
		}
	}
	ex.mu.Unlock()
}

// Hold keeps the loop goroutine parked, not gone, while its run-queue is
// empty: a running operator and a tap with something attached hold their
// executor. Release undoes one Hold.
func (t *Task) Hold() {
	t.ex.mu.Lock()
	t.ex.held++
	t.ex.mu.Unlock()
}

// Release undoes one Hold.
func (t *Task) Release() {
	ex := t.ex
	ex.mu.Lock()
	if ex.held--; ex.held == 0 && ex.parked {
		ex.unpark()
	}
	ex.mu.Unlock()
}

func (ex *Executor) enqueue(t *Task) {
	ex.runq.Push(t)
	t.queued = true
	ex.loops.add(1)
}

func (ex *Executor) unpark() {
	ex.parked = false
	ex.wakes.Inc()
	ex.wake.Signal()
}

func (ex *Executor) loop() {
	ex.mu.Lock()
	for {
		for ex.runq.Len() == 0 {
			if ex.held == 0 {
				ex.running = false
				ex.mu.Unlock()
				return
			}
			ex.parked = true
			ex.wake.Wait()
		}
		t, _ := ex.runq.Pop()
		t.queued = false
		ex.mu.Unlock()
		ex.steps.Inc()
		more := t.run.step()
		ex.mu.Lock()
		if more && !t.queued {
			ex.enqueue(t)
		}
		ex.loops.add(-1) // the step ended; a re-queue above counted anew
	}
}

// LoopStats is an executor's lifetime counts.
type LoopStats struct {
	Steps, Items, Wakes uint64
	RunQueueHighWater   int
}

// Stats returns the executor's counts.
func (ex *Executor) Stats() LoopStats {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return LoopStats{ex.steps.Value(), ex.items.Value(), ex.wakes.Value(), ex.runq.HighWater()}
}

// Instrument exports the executor's counters — the same variables Stats
// reads — on reg with the given labels.
func (ex *Executor) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	reg.Attach("loop_steps_total", &ex.steps, labels...)
	reg.Attach("loop_items_total", &ex.items, labels...)
	reg.Attach("loop_wakes_total", &ex.wakes, labels...)
}
