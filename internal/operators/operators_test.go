package operators

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

func feed(q *stream.Queue, docs ...string) {
	for i, d := range docs {
		q.Push(stream.Item{Tree: xmltree.MustParse(d), Seq: uint64(i + 1), Time: time.Duration(i) * time.Second})
	}
	q.Push(stream.EOSItem("test"))
}

func collect(t *testing.T, p Proc, inputs []*stream.Queue) []stream.Item {
	t.Helper()
	out := stream.NewQueue()
	h := Run(p, inputs, QueueSink(out))
	h.Wait()
	return out.Drain()
}

func labels(items []stream.Item) string {
	var ls []string
	for _, it := range items {
		ls = append(ls, it.Tree.Label)
	}
	return strings.Join(ls, ",")
}

func TestSelectForwardsMatching(t *testing.T) {
	in := stream.NewQueue()
	feed(in, `<a keep="yes"/>`, `<b keep="no"/>`, `<c keep="yes"/>`)
	sel := &Select{Pred: func(n *xmltree.Node) bool { return n.AttrOr("keep", "") == "yes" }}
	got := collect(t, sel, []*stream.Queue{in})
	if labels(got) != "a,c" {
		t.Errorf("got %s", labels(got))
	}
}

func TestSelectNilPredPassesAll(t *testing.T) {
	in := stream.NewQueue()
	feed(in, `<a/>`, `<b/>`)
	got := collect(t, &Select{}, []*stream.Queue{in})
	if labels(got) != "a,b" {
		t.Errorf("got %s", labels(got))
	}
}

func TestRestructure(t *testing.T) {
	in := stream.NewQueue()
	feed(in, `<alert caller="a.com"/>`, `<alert caller="b.com"/>`)
	r := &Restructure{Apply: func(n *xmltree.Node) (*xmltree.Node, error) {
		out := xmltree.Elem("incident")
		out.SetAttr("client", n.AttrOr("caller", "?"))
		return out, nil
	}}
	got := collect(t, r, []*stream.Queue{in})
	if len(got) != 2 || got[0].Tree.AttrOr("client", "") != "a.com" {
		t.Errorf("got %v", got)
	}
}

func TestRestructureDropsAndCountsErrors(t *testing.T) {
	in := stream.NewQueue()
	feed(in, `<a/>`, `<b/>`, `<c/>`)
	r := &Restructure{Apply: func(n *xmltree.Node) (*xmltree.Node, error) {
		switch n.Label {
		case "a":
			return nil, nil // silent drop
		case "b":
			return nil, fmt.Errorf("bad template")
		}
		return n, nil
	}}
	got := collect(t, r, []*stream.Queue{in})
	if labels(got) != "c" || r.Errors() != 1 {
		t.Errorf("got %s errs=%d", labels(got), r.Errors())
	}
}

func TestUnionMergesAllInputs(t *testing.T) {
	in1, in2 := stream.NewQueue(), stream.NewQueue()
	feed(in1, `<a/>`, `<b/>`)
	feed(in2, `<c/>`)
	got := collect(t, &Union{}, []*stream.Queue{in1, in2})
	if len(got) != 3 {
		t.Errorf("got %d items", len(got))
	}
}

func TestRunEmitsSingleEOS(t *testing.T) {
	in := stream.NewQueue()
	feed(in, `<a/>`)
	out := stream.NewQueue()
	var eos int
	h := Run(&Union{}, []*stream.Queue{in}, func(it stream.Item) {
		if it.EOS() {
			eos++
		}
		out.Push(it)
	})
	h.Wait()
	if eos != 1 {
		t.Errorf("eos count = %d", eos)
	}
	if h.ItemsIn() != 1 || h.ItemsOut() != 1 {
		t.Errorf("in=%d out=%d", h.ItemsIn(), h.ItemsOut())
	}
}

func TestDistinct(t *testing.T) {
	in := stream.NewQueue()
	feed(in, `<a x="1"/>`, `<a x="1"/>`, `<a x="2"/>`, `<a x="1"/>`)
	got := collect(t, &Distinct{}, []*stream.Queue{in})
	if len(got) != 2 {
		t.Errorf("got %d items", len(got))
	}
}

func TestDistinctCustomKey(t *testing.T) {
	in := stream.NewQueue()
	feed(in, `<a id="1" noise="p"/>`, `<a id="1" noise="q"/>`, `<a id="2"/>`)
	d := &Distinct{Key: func(n *xmltree.Node) string { return n.AttrOr("id", "") }}
	got := collect(t, d, []*stream.Queue{in})
	if len(got) != 2 {
		t.Errorf("got %d items", len(got))
	}
}

func TestDistinctWindowExpires(t *testing.T) {
	in := stream.NewQueue()
	// Items at t=0s,1s,2s,...; window 1.5s: the duplicate at t=0..1 is
	// suppressed, but after silence the same key reappears.
	in.Push(stream.Item{Tree: xmltree.MustParse(`<a id="1"/>`), Time: 0})
	in.Push(stream.Item{Tree: xmltree.MustParse(`<a id="1"/>`), Time: 1 * time.Second})
	in.Push(stream.Item{Tree: xmltree.MustParse(`<a id="1"/>`), Time: 10 * time.Second})
	in.Push(stream.EOSItem("test"))
	d := &Distinct{Window: 1500 * time.Millisecond}
	got := collect(t, d, []*stream.Queue{in})
	if len(got) != 2 {
		t.Errorf("got %d items, want 2 (expired key re-admitted)", len(got))
	}
}

func TestJoinMatchesOnKey(t *testing.T) {
	left, right := stream.NewQueue(), stream.NewQueue()
	feed(left, `<out callId="1"/>`, `<out callId="2"/>`)
	feed(right, `<in callId="2"/>`, `<in callId="3"/>`)
	j := &Join{LeftKey: AttrKey("callId"), RightKey: AttrKey("callId"), UseIndex: true}
	got := collect(t, j, []*stream.Queue{left, right})
	if len(got) != 1 {
		t.Fatalf("got %d pairs", len(got))
	}
	pair := got[0].Tree
	if pair.Label != "pair" || pair.Child("left") == nil || pair.Child("right") == nil {
		t.Errorf("pair = %s", pair)
	}
	l := pair.Child("left").Children[0]
	r := pair.Child("right").Children[0]
	if l.Label != "out" || r.Label != "in" {
		t.Errorf("sides wrong: %s / %s", l, r)
	}
}

func TestJoinIndexAndScanAgree(t *testing.T) {
	mk := func(useIndex bool) int {
		left, right := stream.NewQueue(), stream.NewQueue()
		for i := 0; i < 30; i++ {
			left.Push(stream.Item{Tree: xmltree.MustParse(fmt.Sprintf(`<l k="%d"/>`, i%10))})
		}
		left.Push(stream.EOSItem("l"))
		for i := 0; i < 30; i++ {
			right.Push(stream.Item{Tree: xmltree.MustParse(fmt.Sprintf(`<r k="%d"/>`, i%10))})
		}
		right.Push(stream.EOSItem("r"))
		j := &Join{LeftKey: AttrKey("k"), RightKey: AttrKey("k"), UseIndex: useIndex}
		out := stream.NewQueue()
		Run(j, []*stream.Queue{left, right}, QueueSink(out)).Wait()
		return len(out.Drain())
	}
	a, b := mk(true), mk(false)
	if a != b {
		t.Errorf("index=%d scan=%d", a, b)
	}
	if a != 90 { // each of 10 keys: 3 left x 3 right
		t.Errorf("pairs = %d, want 90", a)
	}
}

// TestJoinOutputTimeIsLaterPartner: a pair carries the later of its two
// partners' times whichever of them arrives first.
func TestJoinOutputTimeIsLaterPartner(t *testing.T) {
	left := stream.Item{Tree: xmltree.MustParse(`<l k="1"/>`), Time: 5 * time.Second}
	right := stream.Item{Tree: xmltree.MustParse(`<r k="1"/>`), Time: 3 * time.Second}
	for _, leftFirst := range []bool{true, false} {
		j := &Join{LeftKey: AttrKey("k"), RightKey: AttrKey("k"), UseIndex: true}
		out := stream.NewQueue()
		sink := QueueSink(out)
		if leftFirst {
			j.Accept(0, left, sink)
			j.Accept(1, right, sink)
		} else {
			j.Accept(1, right, sink)
			j.Accept(0, left, sink)
		}
		out.Close()
		got := out.Drain()
		if len(got) != 1 || got[0].Time != 5*time.Second {
			t.Errorf("left first %v: got %v, want one pair at 5s", leftFirst, got)
		}
	}
}

func TestJoinResidualPredicate(t *testing.T) {
	left, right := stream.NewQueue(), stream.NewQueue()
	feed(left, `<l k="1" v="10"/>`, `<l k="1" v="30"/>`)
	feed(right, `<r k="1" v="20"/>`)
	j := &Join{
		LeftKey: AttrKey("k"), RightKey: AttrKey("k"), UseIndex: true,
		Residual: func(l, r *xmltree.Node) bool {
			return l.AttrOr("v", "") < r.AttrOr("v", "")
		},
	}
	got := collect(t, j, []*stream.Queue{left, right})
	if len(got) != 1 {
		t.Errorf("got %d pairs, want 1 (only v=10 < v=20)", len(got))
	}
}

func TestJoinMissingKeyIgnored(t *testing.T) {
	left, right := stream.NewQueue(), stream.NewQueue()
	feed(left, `<l/>`, `<l k="1"/>`)
	feed(right, `<r k="1"/>`)
	j := &Join{LeftKey: AttrKey("k"), RightKey: AttrKey("k"), UseIndex: true}
	got := collect(t, j, []*stream.Queue{left, right})
	if len(got) != 1 {
		t.Errorf("got %d", len(got))
	}
}

func TestJoinWindowEvictsAtWatermark(t *testing.T) {
	j := &Join{LeftKey: AttrKey("k"), RightKey: AttrKey("k"), UseIndex: true, Window: 2 * time.Second}
	out := stream.NewQueue()
	sink := QueueSink(out)
	// Both inputs progress to t=100s; the k=1 left entry from t=0 falls
	// behind the watermark window and is collected, so the late k=1
	// right probe finds nothing; k=2 pairs normally.
	j.Accept(0, stream.Item{Tree: xmltree.MustParse(`<l k="1"/>`), Time: 0}, sink)
	j.Accept(0, stream.Item{Tree: xmltree.MustParse(`<l k="2"/>`), Time: 100 * time.Second}, sink)
	j.Accept(1, stream.Item{Tree: xmltree.MustParse(`<r k="1"/>`), Time: 100 * time.Second}, sink)
	j.Accept(1, stream.Item{Tree: xmltree.MustParse(`<r k="2"/>`), Time: 100 * time.Second}, sink)
	out.Close()
	got := out.Drain()
	if len(got) != 1 {
		t.Errorf("got %d pairs, want 1 (k=2 only)", len(got))
	}
	if j.Evicted() == 0 {
		t.Error("expected evictions")
	}
	if j.HistorySize() >= j.PeakHistorySize()+1 {
		t.Errorf("history accounting wrong: live=%d peak=%d", j.HistorySize(), j.PeakHistorySize())
	}
}

// TestJoinWindowLaggingInputKeepsPartners pins the watermark semantics:
// while one input has not advanced, the other input's entries are NOT
// collected, however far ahead it runs — lagging partners still join.
func TestJoinWindowLaggingInputKeepsPartners(t *testing.T) {
	j := &Join{LeftKey: AttrKey("k"), RightKey: AttrKey("k"), UseIndex: true, Window: time.Second}
	out := stream.NewQueue()
	sink := QueueSink(out)
	// Rights race ahead through t=0..50s; lefts lag at t≈0.
	for i := 0; i <= 50; i += 10 {
		r := xmltree.Elem("r")
		r.SetAttr("k", fmt.Sprintf("%d", i))
		j.Accept(1, stream.Item{Tree: r, Time: time.Duration(i) * time.Second}, sink)
	}
	for i := 0; i <= 50; i += 10 {
		l := xmltree.Elem("l")
		l.SetAttr("k", fmt.Sprintf("%d", i))
		j.Accept(0, stream.Item{Tree: l, Time: time.Duration(i) * time.Second}, sink)
	}
	out.Close()
	if got := len(out.Drain()); got != 6 {
		t.Errorf("got %d pairs, want 6 (no partner lost to the racing input)", got)
	}
}

func TestJoinProbesIndexedFewerThanScan(t *testing.T) {
	build := func(useIndex bool) uint64 {
		j := &Join{LeftKey: AttrKey("k"), RightKey: AttrKey("k"), UseIndex: useIndex}
		sink := func(stream.Item) {}
		for i := 0; i < 200; i++ {
			j.Accept(0, stream.Item{Tree: xmltree.MustParse(fmt.Sprintf(`<l k="%d"/>`, i))}, sink)
		}
		j.Accept(1, stream.Item{Tree: xmltree.MustParse(`<r k="5"/>`)}, sink)
		return j.Probes()
	}
	idx, scan := build(true), build(false)
	if idx >= scan {
		t.Errorf("indexed probes %d should be < scan probes %d", idx, scan)
	}
	if idx != 1 || scan != 200 {
		t.Errorf("idx=%d scan=%d", idx, scan)
	}
}

func TestGroupWindowedCounts(t *testing.T) {
	in := stream.NewQueue()
	push := func(key string, sec int) {
		n := xmltree.Elem("ev")
		n.SetAttr("peer", key)
		in.Push(stream.Item{Tree: n, Time: time.Duration(sec) * time.Second})
	}
	push("a", 0)
	push("a", 1)
	push("b", 1)
	push("a", 5) // crosses the 3s window boundary
	in.Push(stream.EOSItem("test"))
	g := &Group{Key: func(n *xmltree.Node) string { return n.AttrOr("peer", "") }, Window: 3 * time.Second}
	got := collect(t, g, []*stream.Queue{in})
	if len(got) != 3 {
		t.Fatalf("got %d groups: %v", len(got), got)
	}
	if got[0].Tree.AttrOr("key", "") != "a" || got[0].Tree.AttrOr("count", "") != "2" {
		t.Errorf("first group = %s", got[0].Tree)
	}
	if got[2].Tree.AttrOr("window", "") == got[0].Tree.AttrOr("window", "") {
		t.Error("windows should differ")
	}
}

// TestGroupEagerEmitWatermark drives timestamp-ordered items through an
// eager group and checks windows stream out before Flush, with stragglers
// counted as late.
func TestGroupEagerEmitWatermark(t *testing.T) {
	g := &Group{
		Key:       func(n *xmltree.Node) string { return n.AttrOr("k", "") },
		Window:    time.Second,
		EagerEmit: true,
	}
	out := stream.NewQueue()
	sink := QueueSink(out)
	push := func(key string, ms int) {
		n := xmltree.Elem("e")
		n.SetAttr("k", key)
		g.Accept(0, stream.Item{Tree: n, Time: time.Duration(ms) * time.Millisecond}, sink)
	}
	push("a", 100)
	push("a", 900)
	if out.Len() != 0 {
		t.Fatal("window 0 emitted too early")
	}
	push("b", 2500) // watermark passes window 0's end + slack
	if out.Len() != 1 {
		t.Fatalf("window 0 not eagerly emitted (len=%d)", out.Len())
	}
	// A straggler for window 0 after emission: late record.
	push("a", 200)
	if g.Late() != 1 {
		t.Errorf("late = %d", g.Late())
	}
	g.Flush(sink)
	out.Close()
	rows := out.Drain()
	// window0(a=2) eager, then at flush: window0-late(a=1), window2(b=1).
	if len(rows) != 3 {
		for _, r := range rows {
			t.Logf("row: %s", r.Tree)
		}
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Tree.AttrOr("count", "") != "2" || rows[0].Tree.AttrOr("window", "") != "0" {
		t.Errorf("eager row = %s", rows[0].Tree)
	}
}

func TestGroupNoWindowFlushesAtEnd(t *testing.T) {
	in := stream.NewQueue()
	feed(in, `<x/>`, `<x/>`, `<x/>`)
	g := &Group{}
	got := collect(t, g, []*stream.Queue{in})
	if len(got) != 1 || got[0].Tree.AttrOr("count", "") != "3" {
		t.Errorf("got %v", got)
	}
}

func TestChannelPublishSink(t *testing.T) {
	ch := stream.NewChannel("p", "s")
	sub := ch.Subscribe("client", nil)
	in := stream.NewQueue()
	feed(in, `<a/>`)
	Run(&Union{}, []*stream.Queue{in}, ChannelPublish(ch)).Wait()
	got := sub.Queue.Drain()
	if len(got) != 1 || !ch.Closed() {
		t.Errorf("got %d items closed=%v", len(got), ch.Closed())
	}
}

func TestXMLFilePublisher(t *testing.T) {
	var sb strings.Builder
	p := &XMLFilePublisher{W: &sb}
	p.Emit(stream.Item{Tree: xmltree.MustParse(`<a/>`)})
	p.Emit(stream.EOSItem("s"))
	if p.Count() != 1 || !strings.Contains(sb.String(), "<a/>") {
		t.Errorf("out = %q", sb.String())
	}
}

func TestEmailPublisher(t *testing.T) {
	var sb strings.Builder
	p := &EmailPublisher{W: &sb, To: "ops@meteo.com"}
	p.Emit(stream.Item{Tree: xmltree.MustParse(`<incident/>`), Source: "alertQoS@p"})
	if p.Sent() != 1 || !strings.Contains(sb.String(), "To: ops@meteo.com") {
		t.Errorf("out = %q", sb.String())
	}
}

func TestRSSPublisherBoundsItems(t *testing.T) {
	p := &RSSPublisher{Title: "alerts", MaxItems: 2}
	for i := 0; i < 5; i++ {
		p.Emit(stream.Item{Tree: xmltree.MustParse(fmt.Sprintf(`<a n="%d"/>`, i)), Seq: uint64(i)})
	}
	feedDoc := p.Feed()
	items := feedDoc.Child("channel").ChildrenByLabel("item")
	if len(items) != 2 {
		t.Errorf("feed has %d items", len(items))
	}
}

func TestPipelineComposition(t *testing.T) {
	// σ → Π → Distinct chained through queues, mirroring a small deployed
	// plan fragment.
	src := stream.NewQueue()
	feed(src,
		`<alert callMethod="GetTemperature" caller="a.com"/>`,
		`<alert callMethod="Other" caller="b.com"/>`,
		`<alert callMethod="GetTemperature" caller="a.com"/>`,
	)
	q1, q2 := stream.NewQueue(), stream.NewQueue()
	out := stream.NewQueue()
	Run(&Select{Pred: func(n *xmltree.Node) bool { return n.AttrOr("callMethod", "") == "GetTemperature" }},
		[]*stream.Queue{src}, QueueSink(q1))
	Run(&Restructure{Apply: func(n *xmltree.Node) (*xmltree.Node, error) {
		o := xmltree.Elem("client")
		o.Append(xmltree.Text(n.AttrOr("caller", "")))
		return o, nil
	}}, []*stream.Queue{q1}, QueueSink(q2))
	h := Run(&Distinct{}, []*stream.Queue{q2}, QueueSink(out))
	h.Wait()
	got := out.Drain()
	if len(got) != 1 || got[0].Tree.InnerText() != "a.com" {
		t.Errorf("got %v", got)
	}
}
