package peer

import (
	"testing"
	"time"
)

// TestManagerDeathRehomesTask closes PR 2's orphaned-manager gap: when
// the peer acting as a task's subscription manager dies, the task must
// not vanish from the live peers' databases. The supervisor re-homes
// the management role to a live peer, the ordinary repair phases then
// migrate whatever else the dead peer hosted (here: the publisher), and
// with the replay layer on the run stays exactly-once — including the
// events driven while the manager was down.
func TestManagerDeathRehomesTask(t *testing.T) {
	opts := DefaultConfig()
	opts.Replay.Buffer = 256
	opts.Replay.CheckpointInterval = 2 * time.Second
	sys := MustSystem(opts)
	mgr := sys.MustAddPeer("mgr")
	src := sys.MustAddPeer("src.com")
	registerService(src)
	client := sys.MustAddPeer("c.com")
	sys.MustAddPeer("w1")
	sys.MustAddPeer("w2")
	sys.MustAddPeer("mon")
	for _, busy := range []string{"src.com", "c.com", "mon"} {
		sys.Net.AddLoad(busy, 10)
	}

	task, err := mgr.DeployPlan(relayPlan("src.com", "w1", "mgr", "rehomed"))
	if err != nil {
		t.Fatal(err)
	}
	sup := startTestSupervisor(sys, 2*time.Second)

	drive := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := client.Endpoint().Invoke("src.com", "Q", nil); err != nil {
				t.Fatal(err)
			}
			sys.Step(time.Second)
		}
	}
	drive(3)
	waitResults(t, sys, task, 3)

	// The manager (which also hosts the publisher) dies mid-run.
	sys.Net.Crash("mgr")
	drive(2) // events during the outage — recoverable via replay
	for i := 0; i < 20 && len(sup.Deaths()) == 0; i++ {
		sys.Step(time.Second)
	}
	if got := sup.Deaths(); len(got) != 1 || got[0] != "mgr" {
		t.Fatalf("deaths = %v, want [mgr]", got)
	}

	var rehome FailoverEvent
	for _, ev := range sup.Events() {
		if ev.Operator == "manager" && ev.From == "mgr" {
			rehome = ev
		}
	}
	if !rehome.Repaired() {
		t.Fatalf("no manager re-home event (events: %+v)", sup.Events())
	}
	newMgr := sys.Peer(rehome.To)
	if newMgr == nil || !sys.Net.Alive(rehome.To) {
		t.Fatalf("task re-homed to %q, which is not a live peer", rehome.To)
	}
	if task.Manager != rehome.To {
		t.Errorf("task.Manager = %q, want %q", task.Manager, rehome.To)
	}
	found := false
	for _, tt := range newMgr.Tasks() {
		if tt == task {
			found = true
		}
	}
	if !found {
		t.Errorf("task missing from %s's subscription database", rehome.To)
	}
	if len(mgr.Tasks()) != 0 {
		t.Errorf("dead manager still lists %d tasks", len(mgr.Tasks()))
	}

	drive(3)
	// 3 pre-crash + 2 outage (replayed) + 3 post-repair, exactly once.
	waitResults(t, sys, task, 8)
	task.Stop()
	if got := len(task.Results().Drain()); got != 8 {
		t.Fatalf("results = %d, want exactly 8 (exactly-once across the manager migration)", got)
	}
	if len(task.Degraded()) != 0 {
		t.Errorf("task degraded: %v", task.Degraded())
	}
}

// TestManagerDeathRehomesLossy: with the replay layer off, re-homing
// still works — the task keeps its manager and publisher, only the
// outage window is lost (PR 1's fail-stop semantics).
func TestManagerDeathRehomesLossy(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	mgr := sys.MustAddPeer("mgr")
	src := sys.MustAddPeer("src.com")
	registerService(src)
	client := sys.MustAddPeer("c.com")
	sys.MustAddPeer("w1")
	sys.MustAddPeer("w2")
	sys.MustAddPeer("mon")
	for _, busy := range []string{"src.com", "c.com", "mon"} {
		sys.Net.AddLoad(busy, 10)
	}
	task, err := mgr.DeployPlan(relayPlan("src.com", "w1", "mgr", "rehomed2"))
	if err != nil {
		t.Fatal(err)
	}
	sup := startTestSupervisor(sys, 2*time.Second)

	drive := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := client.Endpoint().Invoke("src.com", "Q", nil); err != nil {
				t.Fatal(err)
			}
			sys.Step(time.Second)
		}
	}
	drive(3)
	waitResults(t, sys, task, 3)
	sys.Net.Crash("mgr")
	for i := 0; i < 20 && len(sup.Deaths()) == 0; i++ {
		sys.Step(time.Second)
	}
	if task.Manager == "mgr" {
		t.Fatal("task was not re-homed")
	}
	drive(3)
	waitResults(t, sys, task, 6)
	task.Stop()
	if got := len(task.Results().Drain()); got < 6 {
		t.Fatalf("results = %d, want >= 6 (post-repair events must flow)", got)
	}
}
