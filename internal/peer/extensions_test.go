package peer

import (
	"strings"
	"testing"

	"p2pm/internal/algebra"
	"p2pm/internal/xmltree"
)

// TestSubsumptionReuseLive: a broad subscription runs; a narrower one
// (superset of conditions) is deployed as a residual filter over the
// broad stream and still produces exactly the right results.
func TestSubsumptionReuseLive(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	m := sys.MustAddPeer("m.com")
	m.Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("ok"), nil
	}, nil)
	m.Endpoint().Register("Other", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("ok"), nil
	}, nil)
	sys.MustAddPeer("x.com")
	sys.MustAddPeer("y.com")

	p1 := sys.MustAddPeer("p1")
	broad, err := p1.Subscribe(`for $e in inCOM(<p>m.com</p>)
where $e.callMethod = "Q"
return $e by publish as channel "allQ"`)
	if err != nil {
		t.Fatal(err)
	}
	p2 := sys.MustAddPeer("p2")
	narrow, err := p2.Subscribe(`for $e in inCOM(<p>m.com</p>)
where $e.callMethod = "Q" and $e.caller = "http://x.com"
return <fromX id="{$e.callId}"/> by publish as channel "xQ"`)
	if err != nil {
		t.Fatal(err)
	}
	// The narrow task must ride on the broad one: no new alerter, a
	// residual σ over a channel.
	hasChannelIn := false
	narrow.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpChannelIn {
			hasChannelIn = true
		}
		if n.Op == algebra.OpAlerter {
			t.Errorf("narrow task deployed its own alerter:\n%s", narrow.Plan.Tree())
		}
	})
	if !hasChannelIn {
		t.Fatalf("no reuse in narrow plan:\n%s", narrow.Plan.Tree())
	}

	// Traffic: 2 Q calls from x.com, 1 Q from y.com, 1 Other from x.com.
	x := sys.Peer("x.com").Endpoint()
	y := sys.Peer("y.com").Endpoint()
	x.Invoke("m.com", "Q", nil)
	x.Invoke("m.com", "Q", nil)
	y.Invoke("m.com", "Q", nil)
	x.Invoke("m.com", "Other", nil)

	broad.Stop()
	narrow.Stop()
	if got := len(broad.Results().Drain()); got != 3 {
		t.Errorf("broad results = %d, want 3", got)
	}
	nres := narrow.Results().Drain()
	if len(nres) != 2 {
		t.Fatalf("narrow results = %d, want 2", len(nres))
	}
	for _, it := range nres {
		if it.Tree.Label != "fromX" {
			t.Errorf("item = %s", it.Tree)
		}
	}
}

// TestNestedSubscriptionLive deploys a nested subscription end to end.
func TestNestedSubscriptionLive(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	mon := sys.MustAddPeer("mon")
	m := sys.MustAddPeer("m.com")
	m.Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("ok"), nil
	}, nil)
	c := sys.MustAddPeer("c.com")
	task, err := mon.Subscribe(`for $x in ( for $y in inCOM(<p>m.com</p>)
                   where $y.callMethod = "Q"
                   return <q caller="{$y.caller}"/> )
where $x.caller = "http://c.com"
return $x by publish as channel "nested"`)
	if err != nil {
		t.Fatal(err)
	}
	c.Endpoint().Invoke("m.com", "Q", nil)
	task.Stop()
	got := task.Results().Drain()
	if len(got) != 1 || got[0].Tree.Label != "q" {
		t.Fatalf("results = %v", got)
	}
}

// TestFaultMonitoring: handler errors surface as fault alerts that
// subscriptions can select on — error management, the paper's first
// motivating context.
func TestFaultMonitoring(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	mon := sys.MustAddPeer("mon")
	m := sys.MustAddPeer("m.com")
	calls := 0
	m.Endpoint().Register("Flaky", func(*xmltree.Node) (*xmltree.Node, error) {
		calls++
		if calls%2 == 0 {
			return nil, errBackend
		}
		return xmltree.Elem("ok"), nil
	}, nil)
	c := sys.MustAddPeer("c.com")
	task, err := mon.Subscribe(`for $e in inCOM(<p>m.com</p>)
where $e.fault != ""
return <failure method="{$e.callMethod}" why="{$e.fault}"/>
by publish as channel "failures" and email "oncall@m.com"`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		c.Endpoint().Invoke("m.com", "Flaky", nil)
	}
	task.Stop()
	got := task.Results().Drain()
	if len(got) != 3 {
		t.Fatalf("failures = %d, want 3", len(got))
	}
	if got[0].Tree.AttrOr("why", "") != "backend down" {
		t.Errorf("failure = %s", got[0].Tree)
	}
	if !strings.Contains(task.Mailbox.String(), "oncall@m.com") {
		t.Error("on-call mail missing")
	}
}

var errBackend = &backendErr{}

type backendErr struct{}

func (*backendErr) Error() string { return "backend down" }
