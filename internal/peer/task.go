package peer

import (
	"bytes"
	"sync"
	"sync/atomic"

	"p2pm/internal/algebra"
	"p2pm/internal/operators"
	"p2pm/internal/p2pml"
	"p2pm/internal/reuse"
	"p2pm/internal/stream"
)

// Task is one deployed monitoring subscription, as tracked by its
// Subscription Manager's database.
type Task struct {
	ID      string
	Manager string
	Sub     *p2pml.Subscription
	Plan    *algebra.Node
	Reuse   *reuse.Result // nil when reuse was disabled

	sys      *System
	refs     map[*algebra.Node]stream.Ref // current stream identity per operator
	origRefs map[*algebra.Node]stream.Ref // first-deployment identity (replica records chain to it)
	channels []*stream.Channel
	// edges is every subscription the task holds, in creation order:
	// operator inputs, BY subscribe targets, the manager's result reader
	// (edge.go). They survive moves — failure handling re-binds them — and
	// Stop closes them.
	edges    []*edge
	procs    map[*algebra.Node]*procInstance
	degraded []string // losses that outlast the peer's return (Degraded)
	handles  []*operators.Handle
	closers  []func()
	pollers  []func() (int, error)
	resultCh *stream.Channel
	namedCh  *stream.Channel

	// Human-facing publication sinks (BY email/file/rss).
	Mailbox SafeBuffer
	FileOut SafeBuffer
	RSSOut  *operators.RSSPublisher

	dynEvents atomic.Uint64
	stopOnce  sync.Once
}

// procInstance tracks one deployed processor (or publisher fan-out): the
// running Proc and its Handle, so the checkpoint sweep can capture a
// consistent (state, consumed cursors, output sequence) cut and failover
// can restore it.
type procInstance struct {
	proc   operators.Proc
	handle *operators.Handle
}

// Degraded lists what this task lost without a repair path. Two kinds
// last exactly while their peer is off the ring, so they are read from
// the plan and the ring: an alerter whose monitored peer departed (its
// events originate there, so nothing can take over), and a consumed
// channel whose host departed with no other provider. The others — a
// move that failed, a dynamic alerter set without the replay layer, a
// truncated membership history — are recorded when they happen. Empty
// for fully healthy or fully repaired tasks.
func (t *Task) Degraded() []string {
	out := append([]string(nil), t.degraded...)
	t.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpAlerter && !t.sys.member(n.Peer) {
			out = append(out, n.Label())
		} else if n.Op == algebra.OpChannelIn && !t.sys.member(n.Channel.PeerID) {
			out = append(out, "channel "+n.Channel.String())
		}
	})
	return out
}

// DynEventsProcessed counts membership events the task's dynamic alerter
// managers have fully applied; callers can synchronize on it before
// driving traffic at newly joined peers. After a manager migration the
// count includes the replayed membership history the new manager
// re-applied — it is a progress watermark, not a distinct-event count.
func (t *Task) DynEventsProcessed() uint64 { return t.dynEvents.Load() }

// Results returns the queue of result items, subscribed since deployment
// (no items are missed between Subscribe and the first read). The queue
// is stable across publisher migrations: failover re-binds the
// underlying subscription and the cursor deduplicates the overlap.
func (t *Task) Results() *stream.Queue { return t.resultEdge().queue }

// resultEdge returns the manager's reader of the task's results.
func (t *Task) resultEdge() *edge {
	for _, e := range t.edges {
		if e.local {
			return e
		}
	}
	return nil
}

// owns reports whether the task created the channel (or adopted it as an
// operator's output) and so closes it on Stop.
func (t *Task) owns(ch *stream.Channel) bool {
	for _, own := range t.channels {
		if own == ch {
			return true
		}
	}
	return false
}

// inputsOf returns the input edges of one consumer operator in input
// order (they are recorded in deployment order).
func (t *Task) inputsOf(n *algebra.Node) []*edge {
	var out []*edge
	for _, e := range t.edges {
		if e.consumer == n {
			out = append(out, e)
		}
	}
	return out
}

// ResultChannel returns the named channel the task publishes under
// (e.g. alertQoS@p), so other peers and tasks can subscribe to it.
func (t *Task) ResultChannel() stream.Ref {
	if t.namedCh != nil {
		return t.namedCh.Ref()
	}
	return t.resultCh.Ref()
}

// StreamRefs exposes the per-operator stream identities assigned at
// deployment (diagnostics, Figure 4 style inspection).
func (t *Task) StreamRefs() map[*algebra.Node]stream.Ref { return t.refs }

// Poll drives the task's polling alerters (RSS, Web pages) once and
// returns the number of alerts produced.
func (t *Task) Poll() (int, error) {
	total := 0
	var firstErr error
	for _, p := range t.pollers {
		n, err := p()
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// OperatorsDeployed counts the operators this task actually deployed
// (channels created), excluding reused streams.
func (t *Task) OperatorsDeployed() int { return len(t.channels) }

// IngestByPeer sums items consumed by the task's operators per hosting
// peer — the per-peer ingest load the X4 aggregation-tree experiment
// compares between flat and tree deployments. Attribution follows each
// operator's current placement (after migrations, the live host).
func (t *Task) IngestByPeer() map[string]uint64 {
	out := make(map[string]uint64)
	for n, inst := range t.procs {
		out[n.Peer] += inst.handle.ItemsIn()
	}
	return out
}

// ItemsProcessed sums items consumed across the task's own operators —
// the CPU-side measure of the reuse experiments.
func (t *Task) ItemsProcessed() uint64 {
	var total uint64
	for _, h := range t.handles {
		total += h.ItemsIn()
	}
	return total
}

// Stop tears the task down in two phases. First the task's own alerters
// emit eos and edges on *shared* channels (reused streams, which will
// never close on our account) are closed; that guarantees every
// operator's inputs terminate, so eos cascades cleanly through the
// task's own channels without losing buffered items. (Detaching a WS
// alerter is a barrier: every call that returned before Stop is fired
// first.) Then the operators are awaited and everything remaining is
// closed: when Stop returns no edge of the task is attached anywhere and
// every queue it fed — Results(), a BY subscribe target's Incoming queue
// — is closed.
func (t *Task) Stop() {
	t.stopOnce.Do(func() {
		for _, c := range t.closers {
			c()
		}
		for _, e := range t.edges {
			if !e.owned {
				e.close()
			}
		}
		for _, h := range t.handles {
			h.Wait()
		}
		for _, ch := range t.channels {
			ch.Close()
		}
		for _, e := range t.edges {
			e.close()
		}
	})
}

// SafeBuffer is a mutex-guarded bytes.Buffer usable as an io.Writer sink
// by publisher operators while tests read it concurrently.
type SafeBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

// Write implements io.Writer.
func (s *SafeBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

// String returns the accumulated contents.
func (s *SafeBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// Len returns the accumulated size.
func (s *SafeBuffer) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Len()
}
