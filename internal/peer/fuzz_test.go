package peer

import (
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"p2pm/internal/algebra"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// realCheckpoints runs the relay rig into a partition and checkpoints
// it: the relay's record then carries input positions, an output
// sequence and an undelivered tail (what the publisher's edge still
// lacks), the publisher's only positions.
func realCheckpoints(tb testing.TB) []string {
	r := newRelayRig(tb, replayOptions())
	defer r.task.Stop()
	for i := 1; i <= 6; i++ {
		r.emit()
		r.sys.Step(time.Second)
		if i == 3 {
			r.sys.Net.Partition([]string{"w1"}, []string{"mgr"})
		}
	}
	var relay *algebra.Node
	r.task.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpUnion {
			relay = n
		}
	})
	r.sys.Quiesce()
	r.sys.CheckpointNow()
	var out []string
	for _, n := range []*algebra.Node{relay, r.task.Plan} {
		raw, ok, err := r.sys.DB.Checkpoint("mgr", r.task.ID, ckptOpID(r.task, n))
		if err != nil || !ok {
			tb.Fatalf("no checkpoint for %s: %v", n.Label(), err)
		}
		out = append(out, raw)
	}
	if ck := parseCkpt(mustParse(tb, out[0])); ck == nil || len(ck.Tail) == 0 {
		tb.Fatalf("the relay's checkpoint carries no tail: %s", out[0])
	}
	return out
}

func mustParse(tb testing.TB, text string) *xmltree.Node {
	n, err := xmltree.Parse(text)
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// ckptFields flattens a record for comparison: trees by their rendering.
func ckptFields(c *ckptRec) []any {
	out := []any{c.OutSeq, c.In, ""}
	if c.State != nil {
		out[2] = c.State.String()
	}
	for _, it := range c.Tail {
		out = append(out, it.Seq, it.Time, it.Tree.String())
	}
	return out
}

// FuzzParseCkpt: checkpoint restore decodes bytes a DHT copy hands back.
// parseCkpt must never panic on any tree the XML parser accepts, and a
// record it accepts must survive its own rendering — toXML → String →
// Parse → parseCkpt — with every field intact: output sequence, input
// positions, operator state and the undelivered tail the edges' low-water
// mark delimits.
func FuzzParseCkpt(f *testing.F) {
	for _, xml := range realCheckpoints(f) {
		f.Add(xml)
	}
	f.Add(`<Ckpt outSeq="7"><In idx="0" seq="5"/><In idx="1" seq="9"/><State><distinct><seen k="a"/></distinct></State><Out seq="6" t="1500000000"><e id="6">x &amp; y</e></Out><Out seq="7" t="-1"><e/></Out></Ckpt>`)
	f.Add(`<Ckpt outSeq="18446744073709551616"/>`)
	f.Add(`<Ckpt><Out seq="1"/><State>text only</State></Ckpt>`)
	f.Add(`<Ckpt outSeq="1"><In seq="`)
	f.Fuzz(func(t *testing.T, text string) {
		n, err := xmltree.Parse(text)
		if err != nil {
			return
		}
		rec := parseCkpt(n)
		if rec == nil || !utf8.ValidString(text) {
			// The serializer writes U+FFFD for a byte that is not UTF-8, so
			// only valid text can be expected back.
			return
		}
		rendered := rec.toXML().String()
		n2, err := xmltree.Parse(rendered)
		if err != nil {
			t.Fatalf("rendering of an accepted checkpoint does not parse: %v\n%s", err, rendered)
		}
		back := parseCkpt(n2)
		if back == nil {
			t.Fatalf("rendering of an accepted checkpoint is rejected:\n%s", rendered)
		}
		if !reflect.DeepEqual(ckptFields(rec), ckptFields(back)) {
			t.Fatalf("checkpoint changed across its own rendering:\n first  %v\n second %v\n via %s", ckptFields(rec), ckptFields(back), rendered)
		}
		// A restored tail goes straight into a channel's retention buffer.
		ch := stream.NewChannel("p", "s")
		ch.EnableReplay(4)
		ch.SeedSeq(back.OutSeq)
		ch.SeedBuffer(back.Tail)
	})
}
