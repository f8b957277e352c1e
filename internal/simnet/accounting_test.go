package simnet

import (
	"fmt"
	"testing"

	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// accountingItem is item i of a fixed run whose trees cover what moves
// the serialized size: varying lengths, every escaped byte in text and in
// attribute values, multi-byte runes, invalid UTF-8 and empty elements.
func accountingItem(i int) stream.Item {
	n := xmltree.Elem("alert").
		SetAttr("callId", fmt.Sprintf("call-%d", i)).
		SetAttr("callee", fmt.Sprintf(`http://s%d.com/?a=%d&b="%d"`, i%7, i, i*i)).
		SetAttr("note", []string{"", "<tag>", "café", "\xff\xfe", "\uFFFD", "世界 🎈"}[i%6])
	if i%3 != 0 {
		n.Append(xmltree.ElemText("body", fmt.Sprintf("%d < %d && \"q\" > %s", i, i+1, "x\xc3"[:i%3])))
	}
	if i%4 == 0 {
		n.Append(xmltree.Elem("empty", xmltree.Elem("nested")), xmltree.Text(""))
	}
	return stream.Item{Tree: n}
}

// TestAccountingMatchesSerializedLength pins the byte accounting of a
// fixed 1 000-item run — one local subscriber, two across links, a late
// third link attached from the replay ring — to the totals the
// string-building accounting produced (taken from a run of commit
// a05113a, where size was len(String())).
func TestAccountingMatchesSerializedLength(t *testing.T) {
	const (
		wantVolume   = 137221
		wantNetBytes = 283244
		wantReplayed = 8802
	)
	nw := New(DefaultOptions())
	for _, n := range []string{"a", "b", "c", "d"} {
		nw.AddNode(n)
	}
	ch := stream.NewChannel("a", "s")
	ch.EnableReplay(64)
	ch.Subscribe("local", nil)
	ch.Subscribe("b", nw.DeliverHook("a", "b", stream.NewQueue()))
	ch.Subscribe("c", nw.DeliverHook("a", "c", stream.NewQueue()))
	var serialized uint64
	for i := 0; i < 1000; i++ {
		it := accountingItem(i)
		serialized += uint64(len(it.Tree.String()))
		ch.Publish(it)
	}
	if got := ch.Volume(); got != wantVolume || got != serialized {
		t.Errorf("Volume() = %d, want %d (sum of len(String()) = %d)", got, wantVolume, serialized)
	}
	late := ch.SubscribeFrom("d", 901, nw.DeliverHook("a", "d", stream.NewQueue()))
	if got := nw.Link("a", "d").Bytes; got != wantReplayed || late.Replayed != 64 {
		t.Errorf("replayed %d items, %d bytes on a→d; want 64 items, %d bytes", late.Replayed, got, wantReplayed)
	}
	if got := nw.Totals(); got.Bytes != wantNetBytes || got.Messages != 2064 {
		t.Errorf("Totals() = %d bytes in %d messages, want %d bytes in 2064", got.Bytes, got.Messages, wantNetBytes)
	}
}

// TestDeliverHookAllocs pins the channel hop across a link at zero
// allocations: publish to an in-memory subscriber and to one behind a
// DeliverHook, and pop both; the link reads the size the publish
// stamped.
func TestDeliverHookAllocs(t *testing.T) {
	nw := New(DefaultOptions())
	nw.AddNode("a")
	nw.AddNode("b")
	ch := stream.NewChannel("a", "s")
	local := ch.Subscribe("local", nil)
	remote := stream.NewQueue()
	ch.Subscribe("remote", nw.DeliverHook("a", "b", remote))
	tree := accountingItem(1).Tree
	hop := func() {
		ch.Publish(stream.Item{Tree: tree})
		local.Queue.TryPop()
		remote.TryPop()
	}
	hop() // sizes both rings and the link
	if a := testing.AllocsPerRun(1000, hop); a != 0 {
		t.Errorf("publish to a local and a simnet subscriber: %v allocs, want 0", a)
	}
}
