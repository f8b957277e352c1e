// Replay and recovery: the peer-side half of the lossless-failover
// subsystem. Channels retain their published tail (internal/stream's
// replay buffers) and every consumer edge carries a cursor and is swept
// for link-fault losses (edge.go); this file adds periodic operator
// checkpointing through the stream-definition database's replicated DHT
// storage — so a migrated operator resumes from its checkpoint and its
// consumers resume from their cursors, exactly once, instead of
// restarting at "now".
package peer

import (
	"strconv"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/kadop"
	"p2pm/internal/operators"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// coldSeed positions a replacement output channel for a checkpoint-less
// restart. With the full input history still retained upstream, the
// re-emission reproduces the original numbering exactly — rewind to 0 so
// downstream cursors deduplicate the overlap. When nothing re-emits — the
// replay layer is off, the stream is live alerts (a dynamic alerter's
// output cannot be replayed), or an input no longer holds its whole
// history (its buffer trimmed, or it is itself a replacement numbered on
// from its predecessor), so re-emission would renumber and collide with
// sequences consumers already hold, silently swallowing new data —
// continue above the old channel's high-water mark instead (the stream
// statistics a real deployment publishes; here, the abandoned channel
// object), trading bounded content duplicates (a retained window
// re-emitted under fresh numbers) for monotonic numbering and zero
// silent loss.
func (s *System) coldSeed(t *Task, n *algebra.Node, out *stream.Channel, oldSeq uint64) {
	reemits := s.replayOn() && n.Op != algebra.OpDynAlerter
	for _, in := range n.Inputs {
		if ch, ok := s.nodeChannel(t, in); ok && ch.ReplayStart() > 1 {
			reemits = false
		}
	}
	if reemits {
		out.SeedSeq(0)
	} else if oldSeq > out.Seq() {
		out.SeedSeq(oldSeq)
	}
}

// ckptRec is one operator checkpoint: the output stream position, the
// per-input consumed positions, (for stateful processors) the operator
// state snapshot, and the undelivered output tail — retained items some
// live consumer has not received yet, which would otherwise die with the
// producer's buffer (an output published during a partition, or dropped
// on a link, counts as stable only once delivered). Together they pin a
// consistent cut: the tail re-seeds the replacement channel's buffer,
// and replaying each input from In[i]+1 into the restored state re-emits
// exactly the post-checkpoint output suffix, under the same sequence
// numbers from OutSeq+1, which downstream cursors deduplicate.
type ckptRec struct {
	OutSeq uint64
	In     []uint64
	State  *xmltree.Node
	Tail   []stream.Item
}

func (c *ckptRec) toXML() *xmltree.Node {
	n := xmltree.Elem("Ckpt")
	n.SetAttr("outSeq", strconv.FormatUint(c.OutSeq, 10))
	for i, seq := range c.In {
		in := xmltree.Elem("In")
		in.SetAttr("idx", strconv.Itoa(i))
		in.SetAttr("seq", strconv.FormatUint(seq, 10))
		n.Append(in)
	}
	if c.State != nil {
		n.Append(xmltree.Elem("State", c.State))
	}
	for _, it := range c.Tail {
		o := xmltree.Elem("Out", it.Tree.Clone())
		o.SetAttr("seq", strconv.FormatUint(it.Seq, 10))
		o.SetAttr("t", strconv.FormatInt(int64(it.Time), 10))
		n.Append(o)
	}
	return n
}

func parseCkpt(n *xmltree.Node) *ckptRec {
	if n == nil || n.Label != "Ckpt" {
		return nil
	}
	out, err := strconv.ParseUint(n.AttrOr("outSeq", "0"), 10, 64)
	if err != nil {
		return nil
	}
	rec := &ckptRec{OutSeq: out}
	for _, in := range n.ChildrenByLabel("In") {
		seq, err := strconv.ParseUint(in.AttrOr("seq", "0"), 10, 64)
		if err != nil {
			return nil
		}
		rec.In = append(rec.In, seq)
	}
	if st := n.Child("State"); st != nil {
		for _, c := range st.Children {
			if !c.IsText() {
				rec.State = c
				break
			}
		}
	}
	for _, o := range n.ChildrenByLabel("Out") {
		seq, err := strconv.ParseUint(o.AttrOr("seq", "0"), 10, 64)
		if err != nil {
			return nil
		}
		t, err := strconv.ParseInt(o.AttrOr("t", "0"), 10, 64)
		if err != nil {
			return nil
		}
		var tree *xmltree.Node
		for _, ch := range o.Children {
			if !ch.IsText() {
				tree = ch
				break
			}
		}
		if tree == nil {
			continue
		}
		rec.Tail = append(rec.Tail, stream.Item{Tree: tree, Seq: seq, Time: time.Duration(t)})
	}
	return rec
}

// ckptOpID names one plan operator stably across migrations: the
// stream's first-deployment identity, which is also what replica records
// chain to.
func ckptOpID(t *Task, n *algebra.Node) string {
	if ref, ok := t.origRefs[n]; ok && ref != (stream.Ref{}) {
		return ref.String()
	}
	if n.Op == algebra.OpPublish && n.Publish != nil {
		return "publish:" + n.Publish.ChannelID
	}
	return "op:" + n.Label()
}

// CheckpointNow snapshots every running operator of every live peer's
// tasks into the stream-definition database (replicated DHT storage, so
// checkpoints survive the crash of their own host). Each snapshot is
// taken inside Handle.Sync — serialized with the operator's processing
// loop — so state, consumed cursors and output sequence form one
// consistent cut. Step drives this on the CheckpointInterval cadence;
// tests may call it directly.
func (s *System) CheckpointNow() {
	s.eachTask((*Peer).checkpointTask)
}

func (p *Peer) checkpointTask(t *Task) {
	s := p.sys
	for n, inst := range t.procs {
		if !s.Net.Alive(n.Peer) {
			continue // a dead host cannot checkpoint
		}
		var out *stream.Channel
		if n.Op == algebra.OpPublish {
			out = t.namedCh
		} else if ch, ok := s.Channel(t.refs[n]); ok {
			out = ch
		}
		if out == nil {
			continue
		}
		rec := &ckptRec{In: make([]uint64, len(n.Inputs))}
		inst.handle.Sync(func() {
			for i := range n.Inputs {
				rec.In[i] = inst.handle.Consumed(i)
			}
			rec.OutSeq = out.Seq()
			if sn, ok := inst.proc.(operators.Snapshotter); ok {
				rec.State = sn.Snapshot()
			}
		})
		// An output is stable only once delivered: retained items some
		// live consumer still lacks (partition in progress, drop not yet
		// swept) ride along as the checkpoint's tail, so they survive the
		// producer's buffer.
		if low := s.lowWater(out.Ref(), rec.OutSeq); low <= rec.OutSeq {
			rec.Tail, _ = out.Replay(low, rec.OutSeq)
		}
		xml := rec.toXML().String()
		op := ckptOpID(t, n)
		if err := s.DB.PutCheckpoint(t.ID, op, xml); err != nil {
			continue // empty ring mid-churn: retry next interval
		}
		// The checkpoint ships from the operator's host to the record's
		// DHT owner and shows up in the traffic counters like any other
		// monitoring cost.
		if owner, err := s.Ring.Owner(kadop.CheckpointKey(t.ID, op)); err == nil {
			s.Net.CountTransfer(n.Peer, owner, len(xml))
		}
	}
}

// loadCheckpoint fetches the latest surviving checkpoint for one plan
// operator, or nil for a cold restart: the replay layer is off, nothing
// survives, or the record predates a re-chunk of the operator's inputs.
func (s *System) loadCheckpoint(from string, t *Task, n *algebra.Node) *ckptRec {
	if !s.replayOn() {
		return nil
	}
	raw, ok, err := s.DB.Checkpoint(from, t.ID, ckptOpID(t, n))
	if err != nil || !ok {
		return nil
	}
	doc, err := xmltree.Parse(raw)
	if err != nil {
		return nil
	}
	if ck := parseCkpt(doc); ck != nil && len(ck.In) == len(n.Inputs) {
		return ck
	}
	return nil
}
