package kadop

import (
	"fmt"
	"testing"

	"p2pm/internal/stream"
)

func refsOf(defs []*StreamDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Ref.String()
	}
	return out
}

// TestLookupOrderAndDedup pins the order lookups return descriptors in —
// reuse takes defs[0], so it decides which stream a plan node is matched
// to. The order is that of the concatenated "StreamID@PeerID" strings,
// which is not field-wise order: "s10@p" sorts before "s1@p" because
// '0' < '@'. Among several records for one stream the first stored wins.
func TestLookupOrderAndDedup(t *testing.T) {
	d := db(t, 8)
	const sig = "Select{x}(inCOM(m))"
	filter := func(r, volume string) *StreamDef {
		return &StreamDef{Ref: ref(r), IsChannel: true, Operator: "Filter", Signature: sig,
			Operands: []stream.Ref{ref("src@m")}, Stats: map[string]string{"avgVolume": volume}}
	}
	// Publication order is deliberately not the sorted order.
	for _, r := range []string{"s1a@p1", "s1@p2", "s10@p2", "s1@p1", "s10@p1"} {
		if err := d.Publish(filter(r, "1")); err != nil {
			t.Fatal(err)
		}
	}
	// A second, different record for s1@p1 (under its ref, operand and
	// signature keys alike), and an identical re-publication of s10@p1.
	if err := d.Publish(filter("s1@p1", "2")); err != nil {
		t.Fatal(err)
	}
	if err := d.Publish(filter("s10@p1", "1")); err != nil {
		t.Fatal(err)
	}
	want := []string{"s10@p1", "s10@p2", "s1@p1", "s1@p2", "s1a@p1"}

	for name, find := range map[string]func() ([]*StreamDef, int, error){
		"signature": func() ([]*StreamDef, int, error) { return d.FindBySignature("peer-3", sig) },
		"operand":   func() ([]*StreamDef, int, error) { return d.FindByOperand("peer-5", "Filter", ref("src@m")) },
	} {
		for round := 0; round < 2; round++ { // the second round is answered from the memo
			got, _, err := find()
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(refsOf(got)) != fmt.Sprint(want) {
				t.Errorf("%s lookup, round %d: order %v, want %v", name, round, refsOf(got), want)
			}
			for _, def := range got {
				if def.Stats["avgVolume"] != "1" {
					t.Errorf("%s lookup, round %d: %s carries avgVolume %s, want the first record's",
						name, round, def.Ref, def.Stats["avgVolume"])
				}
			}
		}
	}
	def, _, err := d.FindByRef("peer-0", ref("s1@p1"))
	if err != nil || def == nil || def.Stats["avgVolume"] != "1" {
		t.Errorf("FindByRef(s1@p1) = %+v, %v; want the first record", def, err)
	}
}
