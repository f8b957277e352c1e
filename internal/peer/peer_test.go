package peer

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/rss"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// figure1 is the Figure 1 subscription, verbatim.
const figure1 = `for $c1 in outCOM(<p>http://a.com</p>
                   <p>http://b.com</p>),
    $c2 in inCOM(<p>http://meteo.com</p>)
let $duration := $c1.responseTimestamp
               - $c1.callTimestamp
where
    $duration > 10 and
    $c1.callMethod = "GetTemperature" and
    $c1.callee = "http://meteo.com" and
    $c1.callId = $c2.callId
return
    <incident type = "slowAnswer">
      <client>{$c1.caller}</client>
      <tstamp>{$c2.callTimestamp}</tstamp>
    </incident>
by publish as channel "alertQoS";`

// meteoWorld builds the 4-peer world of the running example: a monitor
// office p, two clients and the meteo.com server whose GetTemperature is
// slow whenever the provided function says so.
func meteoWorld(t *testing.T, opts Config, slow func(call int) bool) (*System, *Peer) {
	t.Helper()
	sys := MustSystem(opts)
	p := sys.MustAddPeer("p")
	sys.MustAddPeer("a.com")
	sys.MustAddPeer("b.com")
	meteo := sys.MustAddPeer("meteo.com")
	calls := 0
	meteo.Endpoint().Register("GetTemperature",
		func(*xmltree.Node) (*xmltree.Node, error) {
			return xmltree.ElemText("temp", "21"), nil
		},
		func() time.Duration {
			calls++
			if slow(calls) {
				return 15 * time.Second
			}
			return 100 * time.Millisecond
		})
	meteo.Endpoint().Register("GetHumidity",
		func(*xmltree.Node) (*xmltree.Node, error) {
			return xmltree.ElemText("hum", "40"), nil
		}, nil)
	return sys, p
}

// TestFigure1EndToEnd deploys the Figure 1 subscription on the simulated
// network, drives client traffic, and checks that exactly the slow calls
// surface as incidents.
func TestFigure1EndToEnd(t *testing.T) {
	// Calls 2 and 5 are slow.
	sys, p := meteoWorld(t, DefaultConfig(), func(c int) bool { return c == 2 || c == 5 })
	task, err := p.Subscribe(figure1)
	if err != nil {
		t.Fatal(err)
	}

	a := sys.Peer("a.com").Endpoint()
	b := sys.Peer("b.com").Endpoint()
	clock := sys.Net.Clock()
	for i := 0; i < 6; i++ {
		caller := a
		if i%2 == 1 {
			caller = b
		}
		if _, err := caller.Invoke("meteo.com", "GetTemperature", xmltree.ElemText("city", "paris")); err != nil {
			t.Fatal(err)
		}
		clock.Advance(30 * time.Second)
	}
	// An unrelated method must not trigger anything.
	if _, err := a.Invoke("meteo.com", "GetHumidity", nil); err != nil {
		t.Fatal(err)
	}

	task.Stop()
	incidents := task.Results().Drain()
	if len(incidents) != 2 {
		for _, it := range incidents {
			t.Logf("incident: %s", it.Tree)
		}
		t.Fatalf("incidents = %d, want 2", len(incidents))
	}
	for _, it := range incidents {
		if it.Tree.Label != "incident" || it.Tree.AttrOr("type", "") != "slowAnswer" {
			t.Errorf("bad incident: %s", it.Tree)
		}
		client := it.Tree.Child("client").InnerText()
		if client != "http://a.com" && client != "http://b.com" {
			t.Errorf("client = %q", client)
		}
		if it.Tree.Child("tstamp").InnerText() == "" {
			t.Error("tstamp missing")
		}
	}
	// Call 2 came from b.com, call 5 from a.com.
	if incidents[0].Tree.Child("client").InnerText() == incidents[1].Tree.Child("client").InnerText() {
		t.Error("both incidents from the same client; expected one each")
	}
}

// TestFigure1TrafficSavedByPushdown measures the C5 effect end to end:
// with selection pushdown, non-matching alerts never leave their peer.
func TestFigure1TrafficSavedByPushdown(t *testing.T) {
	run := func(pushdown bool) uint64 {
		opts := DefaultConfig()
		opts.Pushdown = pushdown
		opts.Reuse = false
		sys, p := meteoWorld(t, opts, func(int) bool { return false }) // all fast
		task, err := p.Subscribe(figure1)
		if err != nil {
			t.Fatal(err)
		}
		a := sys.Peer("a.com").Endpoint()
		for i := 0; i < 20; i++ {
			if _, err := a.Invoke("meteo.com", "GetTemperature", nil); err != nil {
				t.Fatal(err)
			}
			sys.Net.Clock().Advance(time.Second)
		}
		task.Stop()
		task.Results().Drain()
		return sys.Net.Totals().Bytes
	}
	withPush := run(true)
	withoutPush := run(false)
	if withPush >= withoutPush {
		t.Errorf("pushdown did not reduce traffic: with=%d without=%d", withPush, withoutPush)
	}
}

// TestFigure2Architecture checks the component introspection against the
// peer architecture of Figure 2.
func TestFigure2Architecture(t *testing.T) {
	sys, p := meteoWorld(t, DefaultConfig(), func(int) bool { return false })
	task, err := p.Subscribe(figure1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { task.Stop(); task.Results().Drain() }()

	// The manager hosts its Subscription Manager and the Publisher.
	comps := p.Components()
	if comps[0] != "SubscriptionManager" {
		t.Errorf("manager components = %v", comps)
	}
	found := false
	for _, c := range comps {
		if c == "Publisher" {
			found = true
		}
	}
	if !found {
		t.Errorf("publisher missing at manager: %v", comps)
	}
	_ = sys
}

// TestDeployedChannelsMatchFigure4 verifies that deployment wires the
// per-peer fragments with channels, one per operator, as in Figure 4.
func TestDeployedChannelsMatchFigure4(t *testing.T) {
	opts := DefaultConfig()
	opts.Reuse = false
	_, p := meteoWorld(t, opts, func(int) bool { return false })
	task, err := p.Subscribe(figure1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { task.Stop(); task.Results().Drain() }()

	// 9 operators (Fig 4 plan) minus publisher = 8 operator channels,
	// plus the named alertQoS channel.
	if got := task.OperatorsDeployed(); got != 9 {
		t.Errorf("channels deployed = %d, want 9", got)
	}
	byPeer := map[string]int{}
	task.Plan.Walk(func(n *algebra.Node) { byPeer[n.Peer]++ })
	want := map[string]int{"a.com": 2, "b.com": 3, "meteo.com": 3, "p": 1}
	for peer, n := range want {
		if byPeer[peer] != n {
			t.Errorf("operators at %s = %d, want %d (plan:\n%s)", peer, byPeer[peer], n, task.Plan.Tree())
		}
	}
	if task.ResultChannel().String() != "alertQoS@p" {
		t.Errorf("result channel = %s", task.ResultChannel())
	}
}

// TestStreamReuseAcrossSubscriptions verifies the end-to-end C7 effect:
// a second identical subscription deploys nothing and still gets results.
func TestStreamReuseAcrossSubscriptions(t *testing.T) {
	sys, p := meteoWorld(t, DefaultConfig(), func(c int) bool { return c == 1 })
	t1, err := p.Subscribe(figure1)
	if err != nil {
		t.Fatal(err)
	}
	q := sys.MustAddPeer("q")
	t2, err := q.Subscribe(figure1)
	if err != nil {
		t.Fatal(err)
	}
	if t2.Reuse == nil || t2.Reuse.NewOps != 0 {
		t.Fatalf("second subscription should reuse everything: %+v", t2.Reuse)
	}
	if t2.OperatorsDeployed() >= t1.OperatorsDeployed() {
		t.Errorf("t2 deployed %d ops, t1 %d", t2.OperatorsDeployed(), t1.OperatorsDeployed())
	}

	a := sys.Peer("a.com").Endpoint()
	if _, err := a.Invoke("meteo.com", "GetTemperature", nil); err != nil {
		t.Fatal(err)
	}
	// Both tasks observe the incident. Stop t1 (the producer) so eos
	// flows to t2's reused channel as well.
	t1.Stop()
	if got := len(t1.Results().Drain()); got != 1 {
		t.Errorf("t1 incidents = %d", got)
	}
	t2.Stop()
	if got := len(t2.Results().Drain()); got != 1 {
		t.Errorf("t2 incidents = %d", got)
	}
}

// TestDelegatedLocalTask runs the Section 3.4 delegated task on a.com:
// results published as channel X with b.com auto-subscribed.
func TestDelegatedLocalTask(t *testing.T) {
	sys, _ := meteoWorld(t, DefaultConfig(), func(int) bool { return true }) // all slow
	aPeer := sys.Peer("a.com")
	task, err := aPeer.Subscribe(`for $e in outCOM(<p>local</p>)
let $duration := $e.responseTimestamp - $e.callTimestamp
where $duration > 10 and $e.callMethod = "GetTemperature"
  and $e.callee = "http://meteo.com"
return $e
by channel X and subscribe(b.com, #X, X)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aPeer.Endpoint().Invoke("meteo.com", "GetTemperature", nil); err != nil {
		t.Fatal(err)
	}
	task.Stop()
	// b.com received the filtered alert in its #X queue.
	got := sys.Peer("b.com").Incoming("X").Drain()
	if len(got) != 1 {
		t.Fatalf("b.com #X items = %d", len(got))
	}
	if got[0].Tree.AttrOr("callMethod", "") != "GetTemperature" {
		t.Errorf("item = %s", got[0].Tree)
	}
	if task.ResultChannel().String() != "X@a.com" {
		t.Errorf("channel = %s", task.ResultChannel())
	}
}

// TestRSSMonitoringTask exercises the RSS alerter pipeline the paper
// reports testing ("We are currently testing our system by monitoring
// RSS feeds").
func TestRSSMonitoringTask(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	mon := sys.MustAddPeer("monitor")
	portal := sys.MustAddPeer("portal.com")
	feed := &rss.Feed{Title: "news", Entries: []rss.Entry{{ID: "1", Title: "first"}}}
	portal.RegisterFeed("http://portal.com/feed", func() (*rss.Feed, error) { return feed.Clone(), nil })

	task, err := mon.Subscribe(`for $r in rssCOM(<p>portal.com</p>)
where $r.change = "add"
return <new entry="{$r.entryId}"/>
by publish as channel "newEntries" and email "ops@portal.com"`)
	if err != nil {
		t.Fatal(err)
	}
	// First poll after baseline: no changes yet.
	if n, err := sys.Poll(); err != nil || n != 0 {
		t.Fatalf("poll: n=%d err=%v", n, err)
	}
	feed.Entries = append(feed.Entries, rss.Entry{ID: "2", Title: "second"})
	feed.Entries[0].Title = "first-updated" // modify: filtered out
	if n, err := sys.Poll(); err != nil || n != 2 {
		t.Fatalf("poll: n=%d err=%v", n, err)
	}
	task.Stop()
	got := task.Results().Drain()
	if len(got) != 1 || got[0].Tree.AttrOr("entry", "") != "2" {
		t.Fatalf("results = %v", got)
	}
	if !strings.Contains(task.Mailbox.String(), "To: ops@portal.com") {
		t.Errorf("email not delivered: %q", task.Mailbox.String())
	}
}

// TestDynamicMembershipTask exercises inCOM($j): peers joining the DHT
// become monitored, peers leaving stop being monitored.
func TestDynamicMembershipTask(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	mon := sys.MustAddPeer("monitor")
	task, err := mon.Subscribe(`for $j in areRegistered(<p>s.com/dht</p>)
for $c in inCOM($j)
return <seen callee="{$c.callee}" method="{$c.callMethod}"/>
by publish as channel "watch"`)
	if err != nil {
		t.Fatal(err)
	}

	// srv1 joins after the task is deployed: its in-calls are monitored.
	srv1, err := sys.AddPeer("srv1")
	if err != nil {
		t.Fatal(err)
	}
	srv1.Endpoint().Register("ping", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("pong"), nil
	}, nil)
	caller := sys.MustAddPeer("caller")
	waitFor(t, sys, func() bool { return task.DynEventsProcessed() >= 2 }) // srv1 + caller joins
	if _, err := caller.Endpoint().Invoke("srv1", "ping", nil); err != nil {
		t.Fatal(err)
	}
	// srv1 leaves: subsequent calls are not monitored.
	if err := sys.Ring.Leave("srv1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, sys, func() bool { return task.DynEventsProcessed() >= 3 })
	if _, err := caller.Endpoint().Invoke("srv1", "ping", nil); err != nil {
		t.Fatal(err)
	}

	task.Stop()
	got := task.Results().Drain()
	if len(got) != 1 {
		for _, it := range got {
			t.Logf("item: %s", it.Tree)
		}
		t.Fatalf("results = %d, want 1 (only the call while srv1 was joined)", len(got))
	}
	if got[0].Tree.AttrOr("callee", "") != "http://srv1" {
		t.Errorf("item = %s", got[0].Tree)
	}
}

// waitFor quiesces the peers' loops and checks cond on what they left.
func waitFor(t *testing.T, sys *System, cond func() bool) {
	t.Helper()
	sys.Quiesce()
	if !cond() {
		t.Fatal("condition not reached once the loops were idle")
	}
}

// pollFor polls cond for what no Quiesce covers: goroutine exits, or loop
// work the test itself holds back.
func pollFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached")
}

func TestSubscribeErrors(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	p := sys.MustAddPeer("p")
	if _, err := p.Subscribe(`garbage`); err == nil {
		t.Error("garbage subscription accepted")
	}
	if _, err := p.Subscribe(`for $r in rssCOM(<p>nosuchpeer</p>) return $r by channel X`); err == nil {
		t.Error("rss task against unknown peer accepted")
	}
}

func TestAXMLRepositoryTask(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	mon := sys.MustAddPeer("monitor")
	store := sys.MustAddPeer("store.com")
	task, err := mon.Subscribe(`for $u in axmlCOM(<p>store.com</p>)
where $u.op = "update"
return <changed doc="{$u.doc}"/>
by publish as channel "changes"`)
	if err != nil {
		t.Fatal(err)
	}
	repo := store.Repo()
	repo.Put("catalog", xmltree.MustParse(`<c v="1"/>`))
	repo.Put("catalog", xmltree.MustParse(`<c v="2"/>`))
	repo.Delete("catalog")
	task.Stop()
	got := task.Results().Drain()
	if len(got) != 1 || got[0].Tree.AttrOr("doc", "") != "catalog" {
		t.Fatalf("results = %v", got)
	}
}

func TestWebPageMonitoringTask(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	mon := sys.MustAddPeer("monitor")
	site := sys.MustAddPeer("site.com")
	page := xmltree.MustParse(`<html><p>v1</p></html>`)
	site.RegisterPage("http://site.com/", func() (*xmltree.Node, error) { return page.Clone(), nil })
	task, err := mon.Subscribe(`for $w in pageCOM(<p>site.com</p>)
return $w by publish as channel "pageChanges"`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Poll() // unchanged
	page.Children[0] = xmltree.MustParse(`<p>v2</p>`)
	if n, err := sys.Poll(); err != nil || n != 1 {
		t.Fatalf("poll n=%d err=%v", n, err)
	}
	task.Stop()
	got := task.Results().Drain()
	if len(got) != 1 || got[0].Tree.Child("delta") == nil {
		t.Fatalf("results = %v", got)
	}
}

func TestTrafficAccountedOnChannels(t *testing.T) {
	opts := DefaultConfig()
	opts.Reuse = false
	sys, p := meteoWorld(t, opts, func(int) bool { return true })
	task, err := p.Subscribe(figure1)
	if err != nil {
		t.Fatal(err)
	}
	sys.Net.ResetTraffic() // ignore deployment-time noise
	a := sys.Peer("a.com").Endpoint()
	if _, err := a.Invoke("meteo.com", "GetTemperature", nil); err != nil {
		t.Fatal(err)
	}
	task.Stop()
	task.Results().Drain()
	tot := sys.Net.Totals()
	if tot.Bytes == 0 || tot.Messages == 0 {
		t.Errorf("no traffic recorded: %+v", tot)
	}
	// The a.com → b.com link (σ output into the union) must have carried
	// the matching alert.
	if sys.Net.Link("a.com", "b.com").Messages == 0 {
		t.Error("a.com→b.com channel leg silent")
	}
}

func TestTaskStopIdempotent(t *testing.T) {
	_, p := meteoWorld(t, DefaultConfig(), func(int) bool { return false })
	task, err := p.Subscribe(figure1)
	if err != nil {
		t.Fatal(err)
	}
	task.Stop()
	task.Stop() // must not panic or deadlock
}

func TestSubscriptionDatabase(t *testing.T) {
	_, p := meteoWorld(t, DefaultConfig(), func(int) bool { return false })
	if len(p.Tasks()) != 0 {
		t.Fatal("fresh peer has tasks")
	}
	task, err := p.Subscribe(figure1)
	if err != nil {
		t.Fatal(err)
	}
	defer task.Stop()
	tasks := p.Tasks()
	if len(tasks) != 1 || tasks[0].ID != task.ID {
		t.Errorf("tasks = %v", tasks)
	}
	if tasks[0].Sub.By[0].Name != "alertQoS" {
		t.Error("subscription AST not recorded")
	}
}

func TestChannelSubscriptionFromOutside(t *testing.T) {
	sys, p := meteoWorld(t, DefaultConfig(), func(int) bool { return true })
	task, err := p.Subscribe(figure1)
	if err != nil {
		t.Fatal(err)
	}
	// Another peer subscribes to the published alertQoS channel directly.
	watcher := sys.MustAddPeer("watcher")
	q, stop, err := sys.SubscribeChannel(stream.Ref{StreamID: "alertQoS", PeerID: "p"}, watcher.Name())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Peer("a.com").Endpoint().Invoke("meteo.com", "GetTemperature", nil); err != nil {
		t.Fatal(err)
	}
	task.Stop()
	stop()
	if got := len(q.Drain()); got != 1 {
		t.Errorf("watcher got %d items", got)
	}
	if _, _, err := sys.SubscribeChannel(stream.Ref{StreamID: "nope", PeerID: "p"}, "watcher"); err == nil {
		t.Error("unknown channel accepted")
	}
}

func TestSystemAddPeerIdempotent(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	p1 := sys.MustAddPeer("x")
	p2 := sys.MustAddPeer("x")
	if p1 != p2 {
		t.Error("AddPeer not idempotent")
	}
	if len(sys.Peers()) != 1 {
		t.Errorf("peers = %v", sys.Peers())
	}
}

func TestGetTemperatureFromMultipleClients(t *testing.T) {
	// Both clients slow on every call: every call yields an incident and
	// the join must pair out-calls with in-calls correctly even when
	// interleaved.
	sys, p := meteoWorld(t, DefaultConfig(), func(int) bool { return true })
	task, err := p.Subscribe(figure1)
	if err != nil {
		t.Fatal(err)
	}
	a := sys.Peer("a.com").Endpoint()
	b := sys.Peer("b.com").Endpoint()
	const rounds = 10
	for i := 0; i < rounds; i++ {
		if _, err := a.Invoke("meteo.com", "GetTemperature", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Invoke("meteo.com", "GetTemperature", nil); err != nil {
			t.Fatal(err)
		}
		sys.Net.Clock().Advance(time.Minute)
	}
	task.Stop()
	got := task.Results().Drain()
	if len(got) != 2*rounds {
		t.Fatalf("incidents = %d, want %d", len(got), 2*rounds)
	}
	counts := map[string]int{}
	for _, it := range got {
		counts[it.Tree.Child("client").InnerText()]++
	}
	if counts["http://a.com"] != rounds || counts["http://b.com"] != rounds {
		t.Errorf("counts = %v", counts)
	}
}

func TestComponentsListsAlertersAtMonitoredPeers(t *testing.T) {
	_, p := meteoWorld(t, DefaultConfig(), func(int) bool { return false })
	task, err := p.Subscribe(figure1)
	if err != nil {
		t.Fatal(err)
	}
	defer task.Stop()
	// meteo.com hosts the inCOM alerter, the join and Π per Figure 4 —
	// but Components introspects the *manager's* database. The plan's
	// operators placed at meteo.com are visible from the manager's task.
	var meteoOps []string
	task.Plan.Walk(func(n *algebra.Node) {
		if n.Peer == "meteo.com" {
			meteoOps = append(meteoOps, n.Op.String())
		}
	})
	want := fmt.Sprint([]string{"Alerter", "Join", "Restructure"})
	if fmt.Sprint(meteoOps) != want {
		t.Errorf("meteo ops = %v, want %v", meteoOps, want)
	}
}
