// The move transaction: the one way a running operator changes its
// output channel — crash repair of a processor, publisher or dynamic
// alerter, a planned aggregation-tree rebalance, a graceful leave's
// handoff and an interior split all go through relocate. The callers
// keep only what is theirs to decide: where the instance goes, what it
// resumes from and how its kind starts. See docs/REPLAY.md "The move
// transaction".
package peer

import (
	"fmt"

	"p2pm/internal/algebra"
	"p2pm/internal/operators"
	"p2pm/internal/stream"
)

// move is a caller's decision about one relocation.
type move struct {
	// host is where the instance runs next (its present host for a split).
	host string
	// adopt is an announced replica of the operator's stream at host: the
	// instance continues publishing into it, so the replica's consumers
	// never notice. nil opens a fresh channel.
	adopt *stream.Channel
	// resume is the cut the instance restarts from — the replicated
	// checkpoint, or a split's live capture; nil is a cold start.
	resume *ckptRec
	// start launches the instance over its input queues, publishing into
	// out, and returns its handle. Whatever can fail is checked before
	// relocate is called.
	start func(queues []*stream.Queue, out *stream.Channel) *operators.Handle
	// rechunk, set by a split only, replaces the default input step: the
	// operator's present input edges (es, fed by ins, in input order) move
	// under new sub-interiors and the queues of the operator's new inputs
	// are returned.
	rechunk func(es []*edge, ins []*stream.Channel) ([]*stream.Queue, error)
}

// relocate runs one move, the phases in the only safe order.
//
// (1) Prepare mutates nothing: every lookup that can fail happens here,
// so a move that cannot complete leaves the operator running where it is
// with its consumers still attached. (2) The output opens, seeded from
// the resume point so the logical stream's numbering continues. (3)
// Every edge indexed under the old channel's ref — this task's operator
// inputs, result reader and BY subscribe targets and, for shared
// interiors and reused streams, other tasks' inputs — swaps to the new
// one BEFORE any input queue closes: closing them makes the old instance
// flush and publish EOS, and an EOS that reaches a consumer's queue ends
// that input for good (re-binding the queue afterwards feeds items nobody
// reads). (4) The inputs re-subscribe from the cut and the instance
// starts. (5) Commit: the plan, the task's stream table, the stale mark
// and the replica chain all name the new channel.
func (p *Peer) relocate(t *Task, n *algebra.Node, mv move) error {
	s := p.sys

	// (1) Prepare.
	oldRef, origRef := t.outputRefs(n)
	if mv.host == "" {
		return fmt.Errorf("no live peer to host %s", n.Label())
	}
	es := t.inputsOf(n)
	if len(es) != len(n.Inputs) {
		return fmt.Errorf("input edges out of sync for %s", n.Label())
	}
	ins := make([]*stream.Channel, len(n.Inputs))
	for i, in := range n.Inputs {
		ch, ok := s.nodeChannel(t, in)
		if !ok {
			return fmt.Errorf("input channel of %s not found", n.Label())
		}
		ins[i] = ch
	}

	// (2) Open the output.
	out := mv.adopt
	if out != nil {
		// The task's operator now produces this channel, so the task owns
		// its lifecycle: it closes when the operator's inputs end.
		t.channels = append(t.channels, out)
	} else if n.Op == algebra.OpPublish {
		out = s.allocChannel(t, mv.host, n.Publish.ChannelID)
	} else {
		out = s.allocChannel(t, mv.host, s.nextStreamID(mv.host))
	}
	if ck := mv.resume; ck != nil {
		out.SeedSeq(ck.OutSeq)
		// The undelivered output tail goes into the replacement buffer:
		// consumers caught mid-partition (or mid-drop) can still fetch
		// what the old producer had published but not delivered.
		out.SeedBuffer(ck.Tail)
	} else {
		var oldSeq uint64
		if old, ok := s.Channel(oldRef); ok {
			oldSeq = old.Seq()
		}
		s.coldSeed(t, n, out, oldSeq)
	}

	// (3) Swap the consumers, in the order they would have been visited
	// peer by peer and task by task. Replica forwarders fed from the old
	// channel are severed instead: they must not relay its terminal EOS
	// into replica channels consumers read (or into the one just adopted).
	// An edge whose task has lost its manager stays where it is — nobody
	// is there to re-bind it until the task is re-homed.
	for _, e := range s.edgesOf(oldRef) {
		switch {
		case e.rep != nil:
			e.sever(out.Ref())
		case s.Net.Alive(e.task.Manager):
			e.rebind(out)
			if e.task == t {
				continue
			}
			if e.child != nil && e.child.Op == algebra.OpChannelIn && e.child.Channel == oldRef {
				e.child.Channel = out.Ref()
			}
			s.Net.CountTransfer(e.peer, mv.host, ctrlMsgBytes)
		}
	}

	// (4) Re-subscribe the inputs from the cut — with replay on, the
	// checkpointed positions, or the full retained history for a cold
	// start; with replay off, "now" — and start the instance. Closing the
	// old input queues (edge.resume) is what ends the old instance.
	var queues []*stream.Queue
	if mv.rechunk != nil {
		var err error
		if queues, err = mv.rechunk(es, ins); err != nil {
			return err
		}
	} else {
		for i, e := range es {
			var fromSeq uint64
			if s.replayOn() {
				fromSeq = 1
				if mv.resume != nil {
					fromSeq = mv.resume.In[i] + 1
				}
			}
			queues = append(queues, e.resume(ins[i], mv.host, fromSeq))
		}
	}
	h := mv.start(queues, out)
	if mv.resume != nil && mv.rechunk == nil {
		// The restored instance has logically consumed everything up to
		// the cut — a checkpoint sweep racing the replayed suffix must not
		// record its cursors as 0.
		for i, seq := range mv.resume.In {
			h.SeedConsumed(i, seq)
		}
	}
	// The instance works off its replayed input before anything reads a
	// consumer cursor again — the next move's swap, the anti-entropy sweep —
	// so what it republishes, and what crosses a link, is a function of the
	// schedule, not of when its loop ran.
	s.Quiesce()

	// (5) Commit. The abandoned channel has no producer anymore: never
	// offer it (or forwarders fed from it, other than an adopted one) as
	// a provider again, even after its host recovers. The replacement is
	// announced under the stream's original identity (consumers' ChannelIn
	// Origin and published descriptors both name it), so later repairs
	// and subscriptions find it across any number of moves.
	n.Peer = mv.host
	if n.Op != algebra.OpPublish {
		t.refs[n] = out.Ref()
	}
	s.markStale(oldRef, out.Ref())
	s.DB.PublishReplica(origRef, out.Ref()) //nolint:errcheck // the ring holds mv.host
	if oldRef != origRef {
		s.DB.PublishReplica(oldRef, out.Ref()) //nolint:errcheck // same ring
	}
	s.Net.CountTransfer(t.Manager, mv.host, ctrlMsgBytes)
	return nil
}

// outputRefs returns the channel a plan node publishes into now — the
// named result channel for the publisher, its stream otherwise — and the
// stream's first-deployment identity, which replica records chain to.
func (t *Task) outputRefs(n *algebra.Node) (cur, orig stream.Ref) {
	cur = t.refs[n]
	if n.Op == algebra.OpPublish {
		cur = t.namedCh.Ref()
	}
	orig, ok := t.origRefs[n]
	if !ok {
		orig = cur
	}
	return cur, orig
}

// runProc starts a processor over its input queues publishing into out,
// on the loop of out's peer — the instance's host, also while a move has
// yet to commit it to the plan — and records the instance for
// checkpointing and teardown.
func (p *Peer) runProc(t *Task, n *algebra.Node, proc operators.Proc, queues []*stream.Queue, out *stream.Channel) *operators.Handle {
	h := p.sys.executor(out.Ref().PeerID).Run(proc, queues, operators.ChannelPublish(out))
	t.handles = append(t.handles, h)
	t.procs[n] = &procInstance{proc: proc, handle: h}
	return h
}
