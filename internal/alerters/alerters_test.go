package alerters

import (
	"fmt"
	"testing"
	"time"

	"p2pm/internal/rss"
	"p2pm/internal/simnet"
	"p2pm/internal/soap"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

func sinkQueue() (*stream.Queue, Emit) {
	q := stream.NewQueue()
	return q, func(it stream.Item) {
		if it.EOS() {
			q.Close()
			return
		}
		q.Push(it)
	}
}

func TestWSAlerterProducesPaperShapedAlerts(t *testing.T) {
	nw := simnet.New(simnet.DefaultOptions())
	fab := soap.NewFabric(nw)
	meteo := fab.Endpoint("meteo.com")
	meteo.Register("GetTemperature", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.ElemText("temp", "21"), nil
	}, func() time.Duration { return 11 * time.Second })
	a := fab.Endpoint("a.com")

	inQ, inEmit := sinkQueue()
	outQ, outEmit := sinkQueue()
	inAl := NewWS("in@meteo.com", Inbound, true, nw.Clock().Now, inEmit)
	outAl := NewWS("out@a.com", Outbound, true, nw.Clock().Now, outEmit)
	meteo.OnInbound(inAl.Hook())
	a.OnOutbound(outAl.Hook())

	if _, err := a.Invoke("meteo.com", "GetTemperature", xmltree.ElemText("city", "paris")); err != nil {
		t.Fatal(err)
	}
	inAl.Close()
	outAl.Close()

	inAlerts, outAlerts := inQ.Drain(), outQ.Drain()
	if len(inAlerts) != 1 || len(outAlerts) != 1 {
		t.Fatalf("in=%d out=%d", len(inAlerts), len(outAlerts))
	}
	in, out := inAlerts[0].Tree, outAlerts[0].Tree
	if in.AttrOr("type", "") != "ws-in" || out.AttrOr("type", "") != "ws-out" {
		t.Errorf("types: %s / %s", in.AttrOr("type", ""), out.AttrOr("type", ""))
	}
	if in.AttrOr("callId", "") != out.AttrOr("callId", "") {
		t.Error("same call must carry the same callId on both sides")
	}
	for _, attr := range []string{"callMethod", "caller", "callee", "callTimestamp", "responseTimestamp"} {
		if _, ok := in.Attr(attr); !ok {
			t.Errorf("missing attribute %s", attr)
		}
	}
	if in.Child("Envelope") == nil {
		t.Error("envelope missing")
	}
	// The duration is recoverable from the attributes, as Figure 1 needs.
	var callT, respT float64
	fmt.Sscanf(in.AttrOr("callTimestamp", ""), "%f", &callT)
	fmt.Sscanf(in.AttrOr("responseTimestamp", ""), "%f", &respT)
	if respT-callT <= 10 {
		t.Errorf("duration = %f, want > 10s", respT-callT)
	}
	if inAl.Produced() != 1 {
		t.Errorf("Produced = %d", inAl.Produced())
	}
}

func TestWSAlerterWithoutEnvelope(t *testing.T) {
	nw := simnet.New(simnet.DefaultOptions())
	fab := soap.NewFabric(nw)
	m := fab.Endpoint("m")
	m.Register("ping", func(*xmltree.Node) (*xmltree.Node, error) { return xmltree.Elem("pong"), nil }, nil)
	q, emit := sinkQueue()
	al := NewWS("in@m", Inbound, false, nil, emit)
	m.OnInbound(al.Hook())
	if _, err := fab.Endpoint("a").Invoke("m", "ping", nil); err != nil {
		t.Fatal(err)
	}
	al.Close()
	alerts := q.Drain()
	if len(alerts) != 1 || len(alerts[0].Tree.Children) != 0 {
		t.Errorf("alert should have no children: %v", alerts)
	}
}

func TestWSAlertFaultAttribute(t *testing.T) {
	nw := simnet.New(simnet.DefaultOptions())
	fab := soap.NewFabric(nw)
	m := fab.Endpoint("m")
	m.Register("bad", func(*xmltree.Node) (*xmltree.Node, error) {
		return nil, fmt.Errorf("backend down")
	}, nil)
	q, emit := sinkQueue()
	al := NewWS("in@m", Inbound, false, nil, emit)
	m.OnInbound(al.Hook())
	fab.Endpoint("a").Invoke("m", "bad", nil)
	al.Close()
	alerts := q.Drain()
	if len(alerts) != 1 || alerts[0].Tree.AttrOr("fault", "") != "backend down" {
		t.Errorf("alerts = %v", alerts)
	}
}

func TestRSSAlerterDiffs(t *testing.T) {
	feed := &rss.Feed{Title: "news", Entries: []rss.Entry{{ID: "1", Title: "t1"}}}
	q, emit := sinkQueue()
	al := NewRSS("rss@p", "http://p/feed", func() (*rss.Feed, error) { return feed.Clone(), nil }, nil, emit)

	// First poll: baseline, no alerts.
	if n, err := al.Poll(); err != nil || n != 0 {
		t.Fatalf("first poll n=%d err=%v", n, err)
	}
	// Add and modify.
	feed.Entries = append(feed.Entries, rss.Entry{ID: "2", Title: "t2"})
	feed.Entries[0].Title = "t1-v2"
	if n, err := al.Poll(); err != nil || n != 2 {
		t.Fatalf("second poll n=%d err=%v", n, err)
	}
	// Steady state: nothing new.
	if n, _ := al.Poll(); n != 0 {
		t.Fatalf("steady poll n=%d", n)
	}
	al.Close()
	alerts := q.Drain()
	if len(alerts) != 2 {
		t.Fatalf("alerts = %d", len(alerts))
	}
	kinds := map[string]bool{}
	for _, a := range alerts {
		if a.Tree.AttrOr("type", "") != "rss" {
			t.Errorf("type = %s", a.Tree.AttrOr("type", ""))
		}
		kinds[a.Tree.AttrOr("change", "")] = true
		if a.Tree.Child("item") == nil {
			t.Error("item payload missing")
		}
	}
	if !kinds["add"] || !kinds["modify"] {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestRSSAlerterFetchError(t *testing.T) {
	_, emit := sinkQueue()
	al := NewRSS("rss@p", "u", func() (*rss.Feed, error) { return nil, fmt.Errorf("404") }, nil, emit)
	if _, err := al.Poll(); err == nil {
		t.Error("fetch error swallowed")
	}
}

func TestWebPageAlerter(t *testing.T) {
	page := xmltree.MustParse(`<html><h1>hello</h1><p>v1</p></html>`)
	q, emit := sinkQueue()
	al := NewWebPage("wp@p", "http://p/index", func() (*xmltree.Node, error) { return page.Clone(), nil }, true, nil, emit)

	if ch, err := al.Poll(); err != nil || ch {
		t.Fatalf("baseline poll changed=%v err=%v", ch, err)
	}
	if ch, _ := al.Poll(); ch {
		t.Fatal("unchanged page reported as changed")
	}
	page.Children[1] = xmltree.MustParse(`<p>v2</p>`)
	ch, err := al.Poll()
	if err != nil || !ch {
		t.Fatalf("changed=%v err=%v", ch, err)
	}
	al.Close()
	alerts := q.Drain()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d", len(alerts))
	}
	delta := alerts[0].Tree.Child("delta")
	if delta == nil {
		t.Fatal("delta missing")
	}
	if delta.Child("removed") == nil || delta.Child("added") == nil {
		t.Errorf("delta = %s", delta)
	}
	if delta.Child("added").Children[0].InnerText() != "v2" {
		t.Errorf("added = %s", delta.Child("added"))
	}
}

func TestAXMLRepoAlerts(t *testing.T) {
	q, emit := sinkQueue()
	repo := NewAXMLRepo("axml@p", true, nil, emit)
	repo.Put("doc1", xmltree.MustParse(`<d v="1"/>`))
	repo.Put("doc1", xmltree.MustParse(`<d v="2"/>`))
	repo.Put("doc1", xmltree.MustParse(`<d v="2"/>`)) // identical: no alert
	repo.Delete("doc1")
	repo.Delete("ghost") // no alert
	repo.Close()
	alerts := q.Drain()
	if len(alerts) != 3 {
		t.Fatalf("alerts = %d", len(alerts))
	}
	ops := []string{alerts[0].Tree.AttrOr("op", ""), alerts[1].Tree.AttrOr("op", ""), alerts[2].Tree.AttrOr("op", "")}
	if fmt.Sprint(ops) != "[create update delete]" {
		t.Errorf("ops = %v", ops)
	}
	if alerts[1].Tree.Child("d") == nil {
		t.Error("update alert should embed new doc")
	}
}

func TestAXMLRepoGetNames(t *testing.T) {
	_, emit := sinkQueue()
	repo := NewAXMLRepo("axml@p", false, nil, emit)
	repo.Put("b", xmltree.Elem("x"))
	repo.Put("a", xmltree.Elem("y"))
	if got, ok := repo.Get("a"); !ok || got.Label != "y" {
		t.Error("Get failed")
	}
	// Get returns a copy.
	got, _ := repo.Get("a")
	got.Label = "mutated"
	if again, _ := repo.Get("a"); again.Label != "y" {
		t.Error("Get leaked internal state")
	}
	if _, ok := repo.Get("ghost"); ok {
		t.Error("ghost doc found")
	}
	names := repo.Names()
	if fmt.Sprint(names) != "[a b]" {
		t.Errorf("names = %v", names)
	}
}

func TestMembershipAlerterPaperFormat(t *testing.T) {
	q, emit := sinkQueue()
	m := NewMembership("dht@s.com", nil, emit)
	m.NotifyJoin("a.com")
	m.NotifyLeave("a.com")
	m.Close()
	events := q.Drain()
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Tree.String() != `<p-join>a.com</p-join>` {
		t.Errorf("join = %s", events[0].Tree)
	}
	if events[1].Tree.String() != `<p-leave>a.com</p-leave>` {
		t.Errorf("leave = %s", events[1].Tree)
	}
}

func TestBaseSequenceNumbers(t *testing.T) {
	q, emit := sinkQueue()
	b := NewBase("src", nil, emit)
	b.Emit(xmltree.Elem("a"))
	b.Emit(xmltree.Elem("b"))
	b.Close()
	items := q.Drain()
	if items[0].Seq != 1 || items[1].Seq != 2 {
		t.Errorf("seqs = %d,%d", items[0].Seq, items[1].Seq)
	}
	if items[0].Source != "src" {
		t.Errorf("source = %s", items[0].Source)
	}
}
