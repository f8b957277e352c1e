package peer

import (
	"fmt"
	"testing"

	"p2pm/internal/alerters"
	"p2pm/internal/algebra"
	"p2pm/internal/operators"
	"p2pm/internal/xmltree"
)

// attachedAt reads the registry: how many alerters the tap of one
// endpoint direction feeds (0 when nothing ever monitored it).
func attachedAt(s *System, peer string, dir alerters.Direction) int {
	s.loopMu.Lock()
	defer s.loopMu.Unlock()
	if t := s.taps[tapKey{peer, dir}]; t != nil {
		return t.Attached()
	}
	return 0
}

func watchPlan(source, channel string) *algebra.Node {
	return &algebra.Node{
		Op: algebra.OpPublish, Peer: "mon", Schema: []string{"c"},
		Inputs:  []*algebra.Node{algebra.NewAlerter("inCOM", "ws-in", source, "c", nil)},
		Publish: &algebra.PublishSpec{ChannelID: channel},
	}
}

// TestStopDetachesAlerter: a monitored call's cost follows the
// subscriptions that exist, not the ones the system has ever had. After
// 200 deploy/stop cycles over one source an Invoke there allocates what
// it did before the first deploy (at the parent it grew by one full
// alert per cycle), the registry holds nothing for the endpoint, and a
// subscription deployed afterwards sees every call exactly once.
func TestStopDetachesAlerter(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	mon := sys.MustAddPeer("mon")
	src := sys.MustAddPeer("src")
	src.Endpoint().Register("ping", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("pong"), nil
	}, nil)
	caller := sys.MustAddPeer("caller").Endpoint()
	invoke := func() {
		if _, err := caller.Invoke("src", "ping", nil); err != nil {
			t.Error(err)
		}
	}

	before := testing.AllocsPerRun(200, invoke)
	var stopped []*Task
	for i := 0; i < 200; i++ {
		task, err := mon.DeployPlan(watchPlan("src", fmt.Sprintf("w%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if got := attachedAt(sys, "src", alerters.Inbound); got != 1 {
			t.Fatalf("cycle %d: %d alerters attached while deployed, want 1", i, got)
		}
		task.Stop()
		stopped = append(stopped, task)
	}
	assertEdges(t, sys, stopped...)
	if got := attachedAt(sys, "src", alerters.Inbound); got != 0 {
		t.Fatalf("%d alerters still attached after every task stopped", got)
	}
	if after := testing.AllocsPerRun(200, invoke); after != before {
		t.Errorf("Invoke allocates %.0f after 200 stopped subscriptions, %.0f before the first", after, before)
	}

	live, err := mon.DeployPlan(watchPlan("src", "live"))
	if err != nil {
		t.Fatal(err)
	}
	const calls = 50
	for i := 0; i < calls; i++ {
		invoke()
	}
	live.Stop()
	assertEdges(t, sys, append(stopped, live)...)
	got := live.Results().Drain()
	if len(got) != calls {
		t.Fatalf("live subscription saw %d alerts for %d calls", len(got), calls)
	}
	seen := make(map[string]bool)
	for _, it := range got {
		id := it.Tree.AttrOr("callId", "")
		if seen[id] {
			t.Errorf("call %s delivered twice", id)
		}
		seen[id] = true
	}
}

// TestTasksShareOneAlert: K tasks watching one endpoint direction get the
// very same tree for a call — the alert is built once, not per task.
func TestTasksShareOneAlert(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	mon := sys.MustAddPeer("mon")
	src := sys.MustAddPeer("src")
	src.Endpoint().Register("ping", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("pong"), nil
	}, nil)
	var tasks []*Task
	for i := 0; i < 3; i++ {
		task, err := mon.DeployPlan(watchPlan("src", fmt.Sprintf("w%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	if got := attachedAt(sys, "src", alerters.Inbound); got != len(tasks) {
		t.Fatalf("%d alerters attached, want %d", got, len(tasks))
	}
	if _, err := sys.MustAddPeer("caller").Endpoint().Invoke("src", "ping", nil); err != nil {
		t.Fatal(err)
	}
	var first *xmltree.Node
	for i, task := range tasks {
		task.Stop()
		got := task.Results().Drain()
		if len(got) != 1 {
			t.Fatalf("task %d saw %d alerts, want 1", i, len(got))
		}
		if first == nil {
			first = got[0].Tree
		} else if got[0].Tree != first {
			t.Errorf("task %d received its own copy of the alert", i)
		}
	}
	assertEdges(t, sys, tasks...)
}

// dynWatch deploys an inCOM($j) dynamic-alerter manager at w1 and waits
// until it monitors svc.
func dynWatch(t *testing.T, cfg Config) (*System, *Task) {
	t.Helper()
	sys := MustSystem(cfg)
	for _, name := range []string{"mgr", "mon", "w1", "w2"} {
		sys.MustAddPeer(name)
	}
	for _, busy := range []string{"mgr", "mon"} {
		sys.Net.AddLoad(busy, 100)
	}
	dyn := &algebra.Node{
		Op: algebra.OpDynAlerter, Peer: "w1", Schema: []string{"c"},
		Inputs:  []*algebra.Node{algebra.NewAlerter("areRegistered", "membership", "mgr", "j", nil)},
		Alerter: &algebra.AlerterSpec{Func: "inCOM", Kind: "ws-in"},
	}
	task, err := sys.Peer("mgr").DeployPlan(&algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{dyn},
		Schema: []string{"c"}, Publish: &algebra.PublishSpec{ChannelID: "watch"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.MustAddPeer("svc")
	waitFor(t, sys, func() bool { return attachedAt(sys, "svc", alerters.Inbound) == 1 })
	return sys, task
}

// TestDynAlerterLeaveDetaches: a p-leave removes the departed peer's
// alerter from its tap, and so does stopping the task for the rest.
func TestDynAlerterLeaveDetaches(t *testing.T) {
	sys, task := dynWatch(t, DefaultConfig())
	sys.MustAddPeer("other")
	waitFor(t, sys, func() bool { return attachedAt(sys, "other", alerters.Inbound) == 1 })
	if err := sys.Ring.Leave("svc"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, sys, func() bool { return attachedAt(sys, "svc", alerters.Inbound) == 0 })
	if got := attachedAt(sys, "other", alerters.Inbound); got != 1 {
		t.Fatalf("other: %d attached after svc left, want 1", got)
	}
	task.Stop()
	if got := attachedAt(sys, "other", alerters.Inbound); got != 0 {
		t.Fatalf("other: %d attached after Stop, want 0", got)
	}
	assertEdges(t, sys, task)
}

// TestDynAlerterManagerMoveDetaches: re-deploying the manager of a
// dynamic alerter set leaves each monitored peer with the new manager's
// alerter only — the old manager detaches its own on the way out.
func TestDynAlerterManagerMoveDetaches(t *testing.T) {
	sys, task := dynWatch(t, replayOptions())
	sys.FailPeer("w1", 0)
	if got := task.Degraded(); len(got) != 0 {
		t.Fatalf("task degraded: %v", got)
	}
	var mgrs []*operators.Handle
	for _, h := range task.handles {
		if h.Name() == "DynAlerter" {
			mgrs = append(mgrs, h)
		}
	}
	if len(mgrs) != 2 {
		t.Fatalf("%d managers started, want the original and its replacement", len(mgrs))
	}
	mgrs[0].Wait() // the old manager is gone, and its alerters with it
	// The new manager replays the membership history, svc's join included.
	waitFor(t, sys, func() bool { return attachedAt(sys, "svc", alerters.Inbound) == 1 })
	assertEdges(t, sys)
	task.Stop()
	if got := attachedAt(sys, "svc", alerters.Inbound); got != 0 {
		t.Fatalf("svc: %d attached after Stop, want 0", got)
	}
	assertEdges(t, sys, task)
}
