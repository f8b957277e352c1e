package peer

import (
	"strings"
	"testing"

	"p2pm/internal/alerters"
	"p2pm/internal/algebra"
	"p2pm/internal/p2pml"
	"p2pm/internal/rss"
	"p2pm/internal/xmltree"
)

// envelopeWorld is a monitor and a source whose ping calls carry
// <city>paris</city>: "paris" is in an alert only with its envelope.
func envelopeWorld(t *testing.T) (sys *System, mon *Peer, call func()) {
	t.Helper()
	sys = MustSystem(DefaultConfig())
	mon = sys.MustAddPeer("mon")
	sys.MustAddPeer("src").Endpoint().Register("ping", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("pong"), nil
	}, nil)
	caller := sys.MustAddPeer("caller").Endpoint()
	return sys, mon, func() {
		if _, err := caller.Invoke("src", "ping", xmltree.ElemText("city", "paris")); err != nil {
			t.Fatal(err)
		}
	}
}

// restructPlan is Publish(Π[tpl](inCOM@src)) at mon, built by hand.
func restructPlan(t *testing.T, tpl, channel string) *algebra.Node {
	t.Helper()
	tmpl, err := p2pml.CompileTemplate(tpl)
	if err != nil {
		t.Fatal(err)
	}
	pi := &algebra.Node{
		Op: algebra.OpRestruct, Peer: "src",
		Inputs:   []*algebra.Node{algebra.NewAlerter("inCOM", "ws-in", "src", "e", nil)},
		Restruct: &algebra.RestructSpec{Template: tmpl},
	}
	return &algebra.Node{Op: algebra.OpPublish, Peer: "mon", Inputs: []*algebra.Node{pi},
		Publish: &algebra.PublishSpec{ChannelID: channel}}
}

// TestEnvelopeFlavoursAndReuse: whatever deploys it and whatever runs
// beside it, a subscription that reads below the alerts' root receives
// the envelope and one that does not goes without; reuse never hands a
// bare stream to a body reader, while a bare subscription may reuse a
// body-carrying one; and the tap builds each flavour in use once per
// call, however many alerters share it.
func TestEnvelopeFlavoursAndReuse(t *testing.T) {
	const (
		bareSub   = `for $e in inCOM(<p>src</p>) where $e.callMethod = "ping" return <r id="{$e.callId}"/> by channel B`
		readerSub = `for $e in inCOM(<p>src</p>) where $e.callMethod = "ping" return $e by channel R`
		calls     = 3
	)
	subscribe := func(src string) func(*testing.T, *Peer) (*Task, error) {
		return func(_ *testing.T, mon *Peer) (*Task, error) { return mon.Subscribe(src) }
	}
	bareDeploy := func(t *testing.T, mon *Peer) (*Task, error) {
		return mon.DeployPlan(restructPlan(t, `<r id="{$e.callId}"/>`, "B"))
	}
	cityPlan := func(t *testing.T) *algebra.Node { return restructPlan(t, `<v>{$e//city}</v>`, "R") }
	for _, c := range []struct {
		name          string
		first, second func(*testing.T, *Peer) (*Task, error)
		envelope      [2]bool // each task's results carry the envelope
		reused        int     // streams the second task's reuse pass substituted
		secondOps     int     // operators the second task deployed
		bare, body    uint64  // alerts the tap built per call
	}{
		// The reader's alerter and σ sign +body: neither bare one fits.
		{"bare then body reader", subscribe(bareSub), subscribe(readerSub), [2]bool{false, true}, 0, 4, 1, 1},
		// The bare subscription reuses the reader's σ over the full
		// alerter and deploys its Π and publisher, as it did when every
		// alert carried the envelope.
		{"body reader then bare", subscribe(readerSub), subscribe(bareSub), [2]bool{true, false}, 1, 2, 0, 1},
		{"DeployPlan reads $e//city", bareDeploy, func(t *testing.T, mon *Peer) (*Task, error) {
			return mon.DeployPlan(cityPlan(t))
		}, [2]bool{false, true}, -1, 3, 1, 1},
		{"DeployPlanShared reads $e//city", bareDeploy, func(t *testing.T, mon *Peer) (*Task, error) {
			return mon.DeployPlanShared(cityPlan(t))
		}, [2]bool{false, true}, 0, 3, 1, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys, mon, call := envelopeWorld(t)
			var tasks [2]*Task
			for i, deploy := range []func(*testing.T, *Peer) (*Task, error){c.first, c.second} {
				task, err := deploy(t, mon)
				if err != nil {
					t.Fatal(err)
				}
				tasks[i] = task
			}
			if c.reused >= 0 && (tasks[1].Reuse == nil || len(tasks[1].Reuse.Mappings) != c.reused) {
				t.Errorf("second task's reuse pass: %+v, want %d streams reused", tasks[1].Reuse, c.reused)
			}
			if got := tasks[1].OperatorsDeployed(); got != c.secondOps {
				t.Errorf("second task deployed %d operators, want %d:\n%s", got, c.secondOps, tasks[1].Plan.Tree())
			}
			for i := 0; i < calls; i++ {
				call()
			}
			sys.Quiesce()
			tasks[1].Stop() // it may read the first task's streams
			tasks[0].Stop()
			for i, task := range tasks {
				got := task.Results().Drain()
				if len(got) != calls {
					t.Fatalf("task %d: %d results for %d calls", i, len(got), calls)
				}
				for _, it := range got {
					if carries := strings.Contains(it.Tree.String(), "paris"); carries != c.envelope[i] {
						t.Errorf("task %d: result carries the envelope = %v, want %v: %s", i, carries, c.envelope[i], it.Tree)
					}
				}
			}
			sys.loopMu.Lock()
			tap := sys.taps[tapKey{"src", alerters.Inbound}]
			sys.loopMu.Unlock()
			if bare, body := tap.Built(); bare != c.bare*calls || body != c.body*calls {
				t.Errorf("the tap built %d bare and %d body-carrying alerts for %d calls, want %d and %d",
					bare, body, calls, c.bare*calls, c.body*calls)
			}
		})
	}
}

// TestReuseHandsEachSubscriptionItsOwnStream: two subscriptions whose
// plans differ only in what a signature must name — a LET's definition,
// a cross product's variables, an RSS alerter's feed — each get the
// results they get alone when the other deployed first, instead of the
// other's stream under an equal signature.
func TestReuseHandsEachSubscriptionItsOwnStream(t *testing.T) {
	for _, c := range []struct {
		name        string
		first, then string
		want        [2]int    // results of first and then
		prefix      [2]string // of every result's id
	}{
		{"a LET's definition",
			`for $e in inCOM(<p>src</p>) let $d := $e.callee where $d = "ping" return <a id="{$e.callId}"/> by channel A`,
			`for $e in inCOM(<p>src</p>) let $d := $e.callMethod where $d = "ping" return <b id="{$e.callId}"/> by channel B`,
			[2]int{0, 3}, [2]string{}},
		{"a cross product's variables",
			`for $a in outCOM(<p>caller</p>), $b in inCOM(<p>src</p>) return <p id="{$a.callId}"/> by channel A`,
			`for $c in outCOM(<p>caller</p>), $d in inCOM(<p>src</p>) return <p id="{$c.callId}"/> by channel B`,
			[2]int{9, 9}, [2]string{}},
		{"an RSS alerter's feed",
			`for $r in rssCOM(<p>src</p><feed url="x"/>) return <e id="{$r.entryId}"/> by channel A`,
			`for $r in rssCOM(<p>src</p><feed url="y"/>) return <e id="{$r.entryId}"/> by channel B`,
			[2]int{1, 2}, [2]string{"x", "y"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys, mon, call := envelopeWorld(t)
			feeds := map[string]*rss.Feed{"x": {Title: "x"}, "y": {Title: "y"}}
			for url, f := range feeds {
				sys.Peer("src").RegisterFeed(url, func() (*rss.Feed, error) { return f.Clone(), nil })
			}
			var tasks [2]*Task
			for i, src := range []string{c.first, c.then} {
				task, err := mon.Subscribe(src)
				if err != nil {
					t.Fatal(err)
				}
				tasks[i] = task
			}
			for i := 0; i < 3; i++ {
				call()
			}
			feeds["x"].Entries = []rss.Entry{{ID: "x1"}}
			feeds["y"].Entries = []rss.Entry{{ID: "y1"}, {ID: "y2"}}
			if _, err := sys.Poll(); err != nil {
				t.Fatal(err)
			}
			sys.Quiesce()
			tasks[1].Stop()
			tasks[0].Stop()
			for i, task := range tasks {
				got := task.Results().Drain()
				if len(got) != c.want[i] {
					t.Errorf("task %d: %d results, want %d:\n%s", i, len(got), c.want[i], task.Plan.Tree())
				}
				for _, it := range got {
					if id := it.Tree.AttrOr("id", ""); !strings.HasPrefix(id, c.prefix[i]) {
						t.Errorf("task %d reads the other feed's entry %s", i, id)
					}
				}
			}
		})
	}
}

// TestDynAlerterCarriesEnvelope: a dynamic alerter set whose alerts are
// published whole attaches a body-carrying alerter to every peer that
// joins.
func TestDynAlerterCarriesEnvelope(t *testing.T) {
	sys, task := dynWatch(t, DefaultConfig())
	sys.Peer("svc").Endpoint().Register("ping", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("pong"), nil
	}, nil)
	if _, err := sys.Peer("mon").Endpoint().Invoke("svc", "ping", xmltree.ElemText("city", "paris")); err != nil {
		t.Fatal(err)
	}
	sys.Quiesce()
	task.Stop()
	got := task.Results().Drain()
	if len(got) != 1 || !strings.Contains(got[0].Tree.String(), "paris") {
		t.Fatalf("results %v, want one alert with its envelope", got)
	}
}
