package kadop

import (
	"sort"
	"strconv"
	"testing"

	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// toXMLRef is ToXML as it was before it carved its tree from one
// Builder: a node and a list growth per element. It is the reference
// TestToXMLMatchesReference holds ToXML to.
func toXMLRef(d *StreamDef) *xmltree.Node {
	n := xmltree.Elem("Stream")
	n.SetAttr("PeerId", d.Ref.PeerID)
	n.SetAttr("StreamId", d.Ref.StreamID)
	n.SetAttr("isAChannel", strconv.FormatBool(d.IsChannel))
	if d.Signature != "" {
		n.SetAttr("signature", d.Signature)
	}
	if d.Group != "" {
		n.SetAttr("group", d.Group)
	}
	opInner := xmltree.Elem(d.Operator)
	for _, c := range d.Conds {
		opInner.Append(xmltree.ElemText("Cond", c))
	}
	n.Append(xmltree.Elem("Operator", opInner))
	if len(d.Sources) > 0 {
		srcs := xmltree.Elem("Sources")
		for _, s := range d.Sources {
			srcs.Append(xmltree.ElemText("Src", s))
		}
		n.Append(srcs)
	}
	operands := xmltree.Elem("Operands")
	for _, o := range d.Operands {
		oe := xmltree.Elem("Operand")
		oe.SetAttr("OPeerId", o.PeerID)
		oe.SetAttr("OStreamId", o.StreamID)
		operands.Append(oe)
	}
	n.Append(operands)
	stats := xmltree.Elem("Stats")
	keys := make([]string, 0, len(d.Stats))
	for k := range d.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		stats.SetAttr(k, d.Stats[k])
	}
	n.Append(stats)
	return n
}

// TestToXMLMatchesReference: every combination of the optional parts —
// signature, group, conditions, sources, operands, stats — renders to the
// bytes the reference construction renders, escaping included, and the
// rendering survives an edit of the tree it came from.
func TestToXMLMatchesReference(t *testing.T) {
	texts := []string{"", "a<b & \"c\"", "Select{$e.callMethod = \"Q\"}(inCOM(s0))"}
	for mask := 0; mask < 64; mask++ {
		for _, text := range texts {
			d := &StreamDef{Ref: stream.Ref{StreamID: "s" + strconv.Itoa(mask), PeerID: "p"}, IsChannel: mask%2 == 0, Operator: "Filter"}
			if mask&1 != 0 {
				d.Signature = text + "sig"
			}
			if mask&2 != 0 {
				d.Group = "count:callee/10s"
			}
			if mask&4 != 0 {
				d.Conds = []string{text, "$e.x > 1"}
			}
			if mask&8 != 0 {
				d.Sources = []string{"inCOM(s0)", text}
			}
			if mask&16 != 0 {
				d.Operands = []stream.Ref{{StreamID: "a", PeerID: "p"}, {StreamID: "b", PeerID: text + "q"}, {StreamID: "c", PeerID: "r"}}
			}
			if mask&32 != 0 {
				d.Stats = map[string]string{"avgVolume": "42", "count": text, "a": "1"}
			}
			got, want := d.ToXML(), toXMLRef(d)
			if got.String() != want.String() {
				t.Fatalf("%+v:\n got %s\nwant %s", d, got, want)
			}
			got.Children[0].SetAttr("extra", "x") // a cap == len list copies
			if got.Children[1].String() != want.Children[1].String() {
				t.Fatalf("an edit of one node changed its neighbour: %s", got)
			}
		}
	}
}
