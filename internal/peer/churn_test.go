package peer

import (
	"math/rand"
	"testing"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// relayPlan builds the canonical churn topology by hand: an inCOM
// alerter at src feeding a relay operator (∪ with one input — a pure
// forwarder) hosted at relay, publishing at mgr. The relay is the
// operator the churn tests kill.
func relayPlan(src, relay, mgr, channelID string) *algebra.Node {
	al := algebra.NewAlerter("inCOM", "ws-in", src, "e", nil)
	un := &algebra.Node{Op: algebra.OpUnion, Peer: relay, Inputs: []*algebra.Node{al}, Schema: []string{"e"}}
	return &algebra.Node{
		Op: algebra.OpPublish, Peer: mgr, Inputs: []*algebra.Node{un},
		Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: channelID},
	}
}

// registerService registers a trivial Q service at the peer.
func registerService(p *Peer) {
	p.Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("ok"), nil
	}, nil)
}

// waitResults quiesces the peers' loops and checks that the task's result
// queue holds at least want items. Churn tests quiesce like this before
// killing a peer: items still in flight inside an operator at crash time
// are legitimately lost (fail-stop), so completeness is only promised for
// settled results.
func waitResults(t *testing.T, sys *System, task *Task, want int) {
	t.Helper()
	sys.Quiesce()
	if got := task.Results().Len(); got < want {
		t.Fatalf("only %d results settled, want %d", got, want)
	}
}

func relayHost(task *Task) string {
	host := ""
	task.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpUnion {
			host = n.Peer
		}
	})
	return host
}

// startTestSupervisor starts the supervisor the failover tests run
// under: gossip detection on a 1 s probe period. They test repair, not
// detection — they wait for the death event rather than count seconds.
func startTestSupervisor(sys *System, suspicion time.Duration) *Supervisor {
	return sys.StartGossipSupervisor(GossipOptions{Seed: 11, ProbeInterval: time.Second, Suspicion: suspicion})
}

// TestFailoverEndToEnd is the acceptance scenario: killing the peer
// hosting a task's relay operator mid-subscription must not lose the
// subscription — the supervisor re-deploys the operator onto a live peer
// and the traffic counters prove the failover path carried the data.
func TestFailoverEndToEnd(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	mgr := sys.MustAddPeer("mgr")
	src := sys.MustAddPeer("src.com")
	registerService(src)
	client := sys.MustAddPeer("c.com")
	sys.MustAddPeer("w1")
	sys.MustAddPeer("w2")
	sys.MustAddPeer("mon")
	// Bias placement so the failover target is the idle worker w2, not a
	// substrate peer.
	for _, busy := range []string{"src.com", "c.com", "mon", "mgr"} {
		sys.Net.AddLoad(busy, 10)
	}

	task, err := mgr.DeployPlan(relayPlan("src.com", "w1", "mgr", "relayed"))
	if err != nil {
		t.Fatal(err)
	}
	sup := startTestSupervisor(sys, 3*time.Second)

	for i := 0; i < 3; i++ {
		if _, err := client.Endpoint().Invoke("src.com", "Q", nil); err != nil {
			t.Fatal(err)
		}
		sys.Step(time.Second)
	}
	waitResults(t, sys, task, 3)
	if sys.Net.Link("src.com", "w1").Messages == 0 {
		t.Fatal("pre-crash data did not flow through the relay")
	}

	sys.Net.Crash("w1")
	for i := 0; i < 20 && len(sup.Deaths()) == 0; i++ {
		sys.Step(time.Second)
	}
	if got := sup.Deaths(); len(got) != 1 || got[0] != "w1" {
		t.Fatalf("deaths = %v, want [w1]", got)
	}
	var ev FailoverEvent
	for _, e := range sup.Events() {
		if e.From == "w1" && e.Repaired() {
			ev = e
		}
	}
	if ev.To != "w2" {
		t.Fatalf("relay migrated to %q, want w2 (events: %+v)", ev.To, sup.Events())
	}
	if got := relayHost(task); got != "w2" {
		t.Errorf("plan relay host = %q, want w2", got)
	}

	sys.Net.ResetTraffic()
	for i := 0; i < 3; i++ {
		if _, err := client.Endpoint().Invoke("src.com", "Q", nil); err != nil {
			t.Fatal(err)
		}
		sys.Step(time.Second)
	}
	task.Stop()
	if got := len(task.Results().Drain()); got != 6 {
		t.Fatalf("results = %d, want all 6 (3 pre-crash + 3 post-failover)", got)
	}
	// The failover path carried the post-crash data; the dead peer saw
	// none of it.
	if sys.Net.Link("src.com", "w2").Messages == 0 {
		t.Error("no data on the src→w2 failover link")
	}
	if sys.Net.Link("w2", "mgr").Messages == 0 {
		t.Error("no data on the w2→mgr failover link")
	}
	if sys.Net.Link("src.com", "w1").Messages != 0 {
		t.Error("data still flowed toward the dead relay")
	}
	if len(task.Degraded()) != 0 {
		t.Errorf("task degraded: %v", task.Degraded())
	}
}

// TestFailoverPrefersAnnouncedReplica: when a live peer announced a
// replica of the dead operator's output stream, the operator re-deploys
// there and keeps publishing into the replica channel, so the replica's
// existing subscribers never miss a beat.
func TestFailoverPrefersAnnouncedReplica(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	mgr := sys.MustAddPeer("mgr")
	src := sys.MustAddPeer("src.com")
	registerService(src)
	client := sys.MustAddPeer("c.com")
	sys.MustAddPeer("w1")
	sys.MustAddPeer("edge.com")
	sys.MustAddPeer("mon")

	task, err := mgr.DeployPlan(relayPlan("src.com", "w1", "mgr", "relayed"))
	if err != nil {
		t.Fatal(err)
	}
	var unionRef stream.Ref
	for n, ref := range task.StreamRefs() {
		if n.Op == algebra.OpUnion {
			unionRef = ref
		}
	}
	repRef, err := sys.AnnounceReplica(unionRef, "edge.com")
	if err != nil {
		t.Fatal(err)
	}
	sup := startTestSupervisor(sys, 3*time.Second)

	for i := 0; i < 2; i++ {
		client.Endpoint().Invoke("src.com", "Q", nil)
		sys.Step(time.Second)
	}
	waitResults(t, sys, task, 2)
	sys.Net.Crash("w1")
	for i := 0; i < 20 && len(sup.Deaths()) == 0; i++ {
		sys.Step(time.Second)
	}
	var ev FailoverEvent
	for _, e := range sup.Events() {
		if e.From == "w1" && e.Repaired() {
			ev = e
		}
	}
	if !ev.ViaReplica || ev.To != "edge.com" {
		t.Fatalf("failover event = %+v, want via replica at edge.com", ev)
	}
	for i := 0; i < 2; i++ {
		client.Endpoint().Invoke("src.com", "Q", nil)
		sys.Step(time.Second)
	}
	// The task adopted the replica channel, so Stop unregisters it: the
	// handle is taken first.
	repCh, ok := sys.Channel(repRef)
	if !ok {
		t.Fatal("replica channel vanished")
	}
	task.Stop()
	if got := len(task.Results().Drain()); got != 4 {
		t.Fatalf("results = %d, want 4", got)
	}
	// The replica channel carried both the forwarded pre-crash items and
	// the re-deployed operator's post-crash output.
	if got := repCh.Published(); got != 4 {
		t.Errorf("replica channel published %d items, want 4", got)
	}
}

// TestFailoverChainAfterRecovery: a consumer bound through a replica
// survives two generations of failover — even when the stream's
// original host has recovered in between. The recovered host's channel
// lost its producer in the first migration, so the second repair must
// not re-bind consumers to it (it would be silent forever); the chained
// replica records lead to the live provider instead.
func TestFailoverChainAfterRecovery(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	mgr := sys.MustAddPeer("mgr")
	src := sys.MustAddPeer("src.com")
	registerService(src)
	client := sys.MustAddPeer("c.com")
	sys.MustAddPeer("w1")
	sys.MustAddPeer("w2")
	sys.MustAddPeer("edge.com")
	far := sys.MustAddPeer("far.com")
	for _, busy := range []string{"src.com", "c.com", "mgr", "far.com"} {
		sys.Net.AddLoad(busy, 10)
	}

	task, err := mgr.DeployPlan(relayPlan("src.com", "w1", "mgr", "chained"))
	if err != nil {
		t.Fatal(err)
	}
	var unionRef stream.Ref
	for n, ref := range task.StreamRefs() {
		if n.Op == algebra.OpUnion {
			unionRef = ref
		}
	}
	repRef, err := sys.AnnounceReplica(unionRef, "edge.com")
	if err != nil {
		t.Fatal(err)
	}
	// A second task consumes the stream through the replica.
	consumer := &algebra.Node{
		Op: algebra.OpPublish, Peer: "far.com", Schema: []string{"e"},
		Publish: &algebra.PublishSpec{ChannelID: "mirror"},
		Inputs: []*algebra.Node{{
			Op: algebra.OpChannelIn, Peer: repRef.PeerID, Schema: []string{"e"},
			Channel: repRef, Origin: unionRef,
		}},
	}
	t2, err := far.DeployPlan(consumer)
	if err != nil {
		t.Fatal(err)
	}

	drive := func(n, settled int) {
		for i := 0; i < n; i++ {
			if _, err := client.Endpoint().Invoke("src.com", "Q", nil); err != nil {
				t.Fatal(err)
			}
		}
		waitResults(t, sys, t2, settled)
	}
	drive(2, 2)

	// Generation 1: the original relay host dies; the operator migrates
	// into the announced replica at edge.com.
	sys.FailPeer("w1", 0)
	drive(2, 4)
	// The original host recovers — but its channel has no producer now.
	sys.RejoinPeer("w1")
	// Generation 2: the replica host dies too. The consumer must land on
	// the second-generation provider, not on the recovered-but-silent
	// original channel at w1.
	sys.FailPeer("edge.com", 0)
	var rebound stream.Ref
	t2.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpChannelIn {
			rebound = n.Channel
		}
	})
	if rebound == unionRef || rebound == repRef {
		t.Fatalf("consumer re-bound to a dead or stale provider: %v", rebound)
	}
	drive(2, 6)

	task.Stop()
	t2.Stop()
	if got := len(t2.Results().Drain()); got != 6 {
		t.Fatalf("consumer results = %d, want 6 across two failover generations", got)
	}
	if got := len(task.Results().Drain()); got != 6 {
		t.Fatalf("task results = %d, want 6", got)
	}
}

// TestFailPeerSourceDeathDegrades: when the monitored peer itself dies,
// its alerter has no replacement — the task reports itself degraded,
// until the peer rejoins the ring.
func TestFailPeerSourceDeathDegrades(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	mgr := sys.MustAddPeer("mgr")
	src := sys.MustAddPeer("src.com")
	registerService(src)
	sys.MustAddPeer("w1")
	task, err := mgr.DeployPlan(relayPlan("src.com", "w1", "mgr", "relayed"))
	if err != nil {
		t.Fatal(err)
	}
	events := sys.FailPeer("src.com", 0)
	if len(events) != 1 || events[0].Repaired() {
		t.Fatalf("events = %+v, want one unrepairable loss", events)
	}
	if len(task.Degraded()) != 1 {
		t.Errorf("degraded = %v, want the alerter", task.Degraded())
	}
	sys.RejoinPeer("src.com")
	if got := task.Degraded(); len(got) != 0 {
		t.Errorf("degraded after the source rejoined = %v, want none", got)
	}
	task.Stop()
}

// TestChurnSoak subjects one subscription to a random crash/recover
// schedule across a pool of relay workers: every event driven while the
// system is stable must eventually reach the subscriber, across many
// migrations. Run with -race.
func TestChurnSoak(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	mgr := sys.MustAddPeer("mgr")
	src := sys.MustAddPeer("src.com")
	registerService(src)
	client := sys.MustAddPeer("c.com")
	workers := []string{"w0", "w1", "w2", "w3"}
	for _, w := range workers {
		sys.MustAddPeer(w)
	}
	sys.MustAddPeer("mon")
	for _, busy := range []string{"src.com", "c.com", "mon", "mgr"} {
		sys.Net.AddLoad(busy, 100)
	}

	task, err := mgr.DeployPlan(relayPlan("src.com", "w0", "mgr", "soak"))
	if err != nil {
		t.Fatal(err)
	}
	sup := startTestSupervisor(sys, 3*time.Second)
	rng := rand.New(rand.NewSource(11))

	driven := 0
	drive := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := client.Endpoint().Invoke("src.com", "Q", nil); err != nil {
				t.Fatal(err)
			}
			driven++
			sys.Step(time.Second)
		}
	}
	stable := func() bool { return len(sup.Detector().Suspects()) == 0 }

	drive(3)
	const rounds = 6
	for r := 0; r < rounds; r++ {
		// Quiesce: results of the stable period must settle before the
		// next crash — items in flight at the relay die with it.
		waitResults(t, sys, task, driven)
		victim := relayHost(task)
		if victim == "" {
			t.Fatal("no relay host")
		}
		sys.Net.Crash(victim)
		deaths := len(sup.Deaths())
		for i := 0; i < 30 && len(sup.Deaths()) == deaths; i++ {
			sys.Step(time.Second)
		}
		if len(sup.Deaths()) == deaths {
			t.Fatalf("round %d: %s never declared dead", r, victim)
		}
		newHost := relayHost(task)
		if newHost == victim || newHost == "" {
			t.Fatalf("round %d: relay still at %q after failover", r, newHost)
		}
		// Mean-time-to-recovery: the victim comes back a few (virtual)
		// seconds later and rejoins the pool.
		drive(1 + rng.Intn(3))
		sys.Net.Recover(victim)
		for i := 0; i < 30 && !stable(); i++ {
			sys.Step(time.Second)
		}
		if !stable() {
			t.Fatalf("round %d: %s never rejoined", r, victim)
		}
		drive(1 + rng.Intn(2))
	}
	task.Stop()
	got := len(task.Results().Drain())
	if got != driven {
		t.Fatalf("results = %d, want %d (every stable-period event must survive churn)", got, driven)
	}
	if got := len(sup.Deaths()); got != rounds {
		t.Errorf("deaths = %d, want %d", got, rounds)
	}
	if tot := sys.Net.Totals(); tot.Dropped == 0 {
		t.Error("a churn soak should drop some messages (dead peers' heartbeats)")
	}
	if len(task.Degraded()) != 0 {
		t.Errorf("task degraded: %v", task.Degraded())
	}
}

// TestFailoverReusedStreamRebinds: a second task that reused the first
// task's relay stream (via the stream-definition database) survives the
// relay host's crash: phase 2 re-binds its ChannelIn to the re-deployed
// provider announced in phase 1.
func TestFailoverReusedStreamRebinds(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	m := sys.MustAddPeer("m.com")
	registerService(m)
	c := sys.MustAddPeer("c.com")
	p1 := sys.MustAddPeer("p1")
	sys.MustAddPeer("w2")
	sys.MustAddPeer("mon")

	// Task 1 deploys σ[callMethod=Q] at m.com (pushdown).
	base, err := p1.Subscribe(`for $e in inCOM(<p>m.com</p>)
where $e.callMethod = "Q"
return $e by publish as channel "qStream"`)
	if err != nil {
		t.Fatal(err)
	}
	// Task 2 reuses task 1's σ stream: its residual σ consumes the
	// published stream through a ChannelIn.
	p2 := sys.MustAddPeer("far.com")
	t2, err := p2.Subscribe(`for $e in inCOM(<p>m.com</p>)
where $e.callMethod = "Q" and $e.caller = "http://c.com"
return <hit id="{$e.callId}"/> by publish as channel "hits"`)
	if err != nil {
		t.Fatal(err)
	}
	usesChannel := false
	t2.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpChannelIn {
			usesChannel = true
		}
	})
	if !usesChannel {
		t.Fatalf("task 2 did not reuse task 1's stream:\n%s", t2.Plan.Tree())
	}

	if _, err := c.Endpoint().Invoke("m.com", "Q", nil); err != nil {
		t.Fatal(err)
	}
	waitResults(t, sys, t2, 1)
	// m.com dies: task 1 loses both its alerter (unrepairable — the
	// source is gone) and the σ; task 2's ChannelIn must be re-bound to
	// wherever the σ re-deployed.
	events := sys.FailPeer("m.com", 0)
	repaired := 0
	for _, e := range events {
		if e.Repaired() {
			repaired++
		}
	}
	if repaired == 0 {
		t.Fatalf("no repairs in %+v", events)
	}
	var rebound stream.Ref
	t2.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpChannelIn {
			rebound = n.Channel
		}
	})
	if rebound.PeerID == "m.com" {
		t.Errorf("task 2 still consumes from the dead peer: %v", rebound)
	}
	base.Stop()
	t2.Stop()
	if got := len(t2.Results().Drain()); got != 1 {
		t.Errorf("pre-crash event lost: results = %d, want 1", got)
	}
}
