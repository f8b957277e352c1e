package peer

import (
	"testing"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/xmltree"
)

// leaveWorld builds the minimal relay deployment the leave tests hand
// off: alerter at src → relay (∪) at w0 → publisher at mgr, with a
// gossip supervisor watching everything and non-workers load-biased so
// migrations stay in the pool.
func leaveWorld(t *testing.T, replay bool) (*System, *Task, *Supervisor) {
	t.Helper()
	opts := DefaultConfig()
	if replay {
		opts.Replay.Buffer = 1024
		opts.Replay.CheckpointInterval = 2 * time.Second
	}
	sys := MustSystem(opts)
	mgr := sys.MustAddPeer("mgr")
	src := sys.MustAddPeer("src")
	src.Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("ok"), nil
	}, nil)
	sys.MustAddPeer("client")
	sys.MustAddPeer("w0")
	sys.MustAddPeer("w1")
	for _, busy := range []string{"mgr", "src", "client"} {
		sys.Net.AddLoad(busy, 1000)
	}
	al := algebra.NewAlerter("inCOM", "ws-in", "src", "e", nil)
	relay := &algebra.Node{Op: algebra.OpUnion, Peer: "w0", Inputs: []*algebra.Node{al}, Schema: []string{"e"}}
	plan := &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{relay},
		Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: "relayed"},
	}
	task, err := mgr.DeployPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	sup := sys.StartGossipSupervisor(GossipOptions{
		Seed: 1, ProbeInterval: time.Second, Suspicion: 2 * time.Second,
	})
	return sys, task, sup
}

// TestLeavePeerGracefulHandoff: a departing relay host announces and
// hands off — tasks migrate immediately (zero detection latency), the
// detector never declares a death, the DHT keys move with their store
// intact, and with replay on not a single event is lost.
func TestLeavePeerGracefulHandoff(t *testing.T) {
	sys, task, sup := leaveWorld(t, true)
	client := sys.Peer("client")
	drive := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := client.Endpoint().Invoke("src", "Q", nil); err != nil {
				t.Fatal(err)
			}
			sys.Quiesce()
			sys.Step(time.Second)
		}
	}
	drive(10)
	if relayHost(task) != "w0" {
		t.Fatalf("relay starts at %s, want w0", relayHost(task))
	}

	evs, err := sys.LeavePeer("w0")
	if err != nil {
		t.Fatal(err)
	}
	repaired := 0
	for _, ev := range evs {
		if ev.Repaired() {
			repaired++
		}
	}
	if repaired == 0 {
		t.Fatalf("leave produced no migrations: %v", evs)
	}
	if got := relayHost(task); got != "w1" {
		t.Errorf("relay after leave at %s, want w1", got)
	}
	if got := sys.Ring.Size(); got != 4 {
		t.Errorf("ring size after leave = %d, want 4", got)
	}

	drive(10)
	for i := 0; i < 6; i++ {
		sys.Step(time.Second)
	}
	if deaths := sup.Deaths(); len(deaths) != 0 {
		t.Errorf("graceful leave was declared a death: %v", deaths)
	}
	task.Stop()
	if got := len(task.Results().Drain()); got != 20 {
		t.Errorf("results = %d, want 20 (lossless handoff)", got)
	}
}

// TestLeavePeerRingHandsOffStore: unlike a crash, a graceful departure
// migrates the leaver's stored copies, so even a replication-1 ring
// keeps every key.
func TestLeavePeerRingHandsOffStore(t *testing.T) {
	opts := DefaultConfig()
	opts.DHT.Replication = 1
	sys := MustSystem(opts)
	for _, n := range []string{"a", "b", "c"} {
		sys.MustAddPeer(n)
	}
	for i := 0; i < 12; i++ {
		if err := sys.Ring.Set(string(rune('k'+i))+"|x", "v"); err != nil {
			t.Fatal(err)
		}
	}
	victim := ""
	for _, n := range sys.Ring.Nodes() {
		if sys.Ring.KeysAt(n) > 0 {
			victim = n
			break
		}
	}
	if victim == "" {
		t.Fatal("no member holds keys")
	}
	if _, err := sys.LeavePeer(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		key := string(rune('k'+i)) + "|x"
		if vals, _, err := sys.Ring.Get("", key); err != nil || len(vals) == 0 {
			t.Errorf("key %s lost in the graceful handoff (vals=%v err=%v)", key, vals, err)
		}
	}
}

// TestLeavePeerErrors: only live members can leave gracefully.
func TestLeavePeerErrors(t *testing.T) {
	sys, _, _ := leaveWorld(t, false)
	if _, err := sys.LeavePeer("nobody"); err == nil {
		t.Error("unknown peer left without error")
	}
	sys.Net.Crash("w1") //nolint:errcheck // known node
	if _, err := sys.LeavePeer("w1"); err == nil {
		t.Error("crashed peer left gracefully")
	}
}

// TestLeaveThenRejoin: a departed peer re-enters through the join
// protocol; its departure statement is outranked and the aggregate
// clears it without ever firing crash repair.
func TestLeaveThenRejoin(t *testing.T) {
	sys, task, sup := leaveWorld(t, true)
	if _, err := sys.LeavePeer("w1"); err != nil { // idle worker leaves
		t.Fatal(err)
	}
	assertEdges(t, sys)
	if got := sup.Detector().Suspects(); len(got) != 1 || got[0] != "w1" {
		t.Fatalf("departed peer not reflected in the aggregate: %v", got)
	}
	if _, err := sys.JoinPeer("w1", "mgr"); err != nil {
		t.Fatal(err)
	}
	assertEdges(t, sys)
	for i := 0; i < 12 && len(sup.Detector().Suspects()) > 0; i++ {
		sys.Step(time.Second)
	}
	if got := sup.Detector().Suspects(); len(got) != 0 {
		t.Errorf("rejoined peer still confirmed gone: %v", got)
	}
	if deaths := sup.Deaths(); len(deaths) != 0 {
		t.Errorf("leave/rejoin cycle declared deaths: %v", deaths)
	}
	task.Stop()
}
