package peer

import (
	"fmt"
	"testing"
	"time"
)

// TestJoinPeerDisseminatesViaGossip: a peer admitted through JoinPeer —
// no Watch pre-registration anywhere — is learned by every other view
// over the piggybacked gossip traffic, bootstraps its own view from the
// seed, and ends up a full first-class member (never suspected, usable
// as a DHT member).
func TestJoinPeerDisseminatesViaGossip(t *testing.T) {
	sys, det := gossipLab(t, 5, GossipOptions{Seed: 13, ProbeInterval: time.Second, Suspicion: 3 * time.Second})
	var tl timeline
	recordTimeline(det, &tl)
	for i := 0; i < 3; i++ {
		sys.Step(time.Second)
	}

	if _, err := sys.JoinPeer("p5", "p0"); err != nil {
		t.Fatal(err)
	}
	// The seed knows the joiner first-hand and the joiner bootstrapped
	// the seed's member list.
	if got := det.MembersOf("p5"); len(got) != 5 {
		t.Fatalf("joiner bootstrapped %v, want the seed's 5 members", got)
	}
	// Dissemination: within a bounded number of protocol periods every
	// view has learned of p5.
	for i := 0; i < 20; i++ {
		sys.Step(time.Second)
	}
	for i := 0; i < 5; i++ {
		owner := fmt.Sprintf("p%d", i)
		st, _, ok := det.ViewOf(owner, "p5")
		if !ok {
			t.Errorf("%s never learned of the joined peer", owner)
		} else if st != "alive" {
			t.Errorf("%s's view of p5 = %q, want alive", owner, st)
		}
	}
	if len(tl) != 0 {
		t.Fatalf("join produced death/recovery events: %v", tl)
	}
	// The joiner is ring-placed and placement-eligible.
	if sys.Ring.Size() != 6 {
		t.Errorf("ring size = %d, want 6 (joiner owns DHT keys)", sys.Ring.Size())
	}
	if sys.Peer("p5") == nil {
		t.Error("joined peer missing from the peer registry")
	}
}

// TestJoinSameIDTwice: simultaneous (and repeated) joins of the same
// identity must collapse to one membership — the second join is a
// harmless refresh, not a duplicate member or a protocol error, even
// when raced from two goroutines against different seeds.
func TestJoinSameIDTwice(t *testing.T) {
	sys, det := gossipLab(t, 4, GossipOptions{Seed: 21, ProbeInterval: time.Second, Suspicion: 3 * time.Second})
	done := make(chan error, 2)
	go func() { _, err := sys.JoinPeer("px", "p0"); done <- err }()
	go func() { _, err := sys.JoinPeer("px", "p1"); done <- err }()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 15; i++ {
		sys.Step(time.Second)
	}
	if got := det.Suspects(); len(got) != 0 {
		t.Fatalf("suspects after duplicate join = %v, want none", got)
	}
	// Exactly one ring membership and one registry entry.
	if sys.Ring.Size() != 5 {
		t.Errorf("ring size = %d, want 5", sys.Ring.Size())
	}
	count := 0
	for _, p := range sys.Peers() {
		if p == "px" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("registry holds %d entries for px, want 1", count)
	}
	// Every view settled on the single member, alive.
	for i := 0; i < 4; i++ {
		if st, _, ok := det.ViewOf(fmt.Sprintf("p%d", i), "px"); !ok || st != "alive" {
			t.Errorf("p%d's view of px = %q (known=%v), want alive", i, st, ok)
		}
	}
}

// TestJoinDuringPartitionThenHeal: a peer joining through a seed on one
// side of a partition is known only on that side until the partition
// heals, after which the arrival disseminates to the far side — and the
// join never produces a death declaration for the joiner.
func TestJoinDuringPartitionThenHeal(t *testing.T) {
	sys, det := gossipLab(t, 6, GossipOptions{Seed: 31, ProbeInterval: time.Second, Suspicion: 6 * time.Second})
	var tl timeline
	recordTimeline(det, &tl)
	for i := 0; i < 3; i++ {
		sys.Step(time.Second)
	}
	near := []string{"p0", "p1", "p2"}
	far := []string{"p3", "p4", "p5"}
	sys.Net.Partition(near, far)
	if _, err := sys.JoinPeer("pj", "p0"); err != nil {
		t.Fatal(err)
	}
	// The joiner lands on the seed's side of the split: rumors about it
	// can only travel where gossip travels, so the far side must stay
	// ignorant while the partition holds.
	sys.Net.Partition(append(near, "pj"), far)
	for i := 0; i < 4; i++ {
		sys.Step(time.Second)
	}
	for _, owner := range far {
		if _, _, known := det.ViewOf(owner, "pj"); known {
			t.Errorf("%s learned of the joiner across a partition", owner)
		}
	}
	for _, owner := range near {
		if st, _, ok := det.ViewOf(owner, "pj"); !ok || st != "alive" {
			t.Errorf("%s's view of joiner = %q (known=%v), want alive", owner, st, ok)
		}
	}
	sys.Net.Heal()
	for i := 0; i < 25; i++ {
		sys.Step(time.Second)
	}
	for _, owner := range append(near, far...) {
		if st, _, ok := det.ViewOf(owner, "pj"); !ok || st != "alive" {
			t.Errorf("after heal: %s's view of joiner = %q (known=%v), want alive", owner, st, ok)
		}
	}
	for _, e := range tl {
		if e == "dead pj" {
			t.Errorf("joiner declared dead during dissemination: %v", tl)
		}
	}
	if got := det.Suspects(); len(got) != 0 {
		t.Errorf("suspects after heal = %v, want none", got)
	}
}

// TestDeadPeerRejoinsWithHigherIncarnation: a confirmed-dead peer that
// comes back through the join protocol adopts an incarnation above the
// death rumor, so the stale declarations cannot re-kill it; the
// supervisor sees the recovery and the peer is placement-eligible
// again.
func TestDeadPeerRejoinsWithHigherIncarnation(t *testing.T) {
	sys, det := gossipLab(t, 5, GossipOptions{Seed: 17, ProbeInterval: time.Second, Suspicion: 2 * time.Second})
	for i := 0; i < 3; i++ {
		sys.Step(time.Second)
	}
	sys.Net.Crash("p3")
	for i := 0; i < 30 && len(det.Suspects()) == 0; i++ {
		sys.Step(time.Second)
	}
	if got := det.Suspects(); len(got) != 1 || got[0] != "p3" {
		t.Fatalf("suspects = %v, want [p3] before the rejoin", got)
	}
	_, incBefore, _ := det.ViewOf("p0", "p3")

	if _, err := sys.JoinPeer("p3", "p0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30 && len(det.Suspects()) != 0; i++ {
		sys.Step(time.Second)
	}
	if got := det.Suspects(); len(got) != 0 {
		t.Fatalf("suspects after rejoin = %v, want none (stale death rumor won)", got)
	}
	for i := 0; i < 5; i++ {
		owner := fmt.Sprintf("p%d", i)
		if owner == "p3" {
			continue
		}
		st, inc, ok := det.ViewOf(owner, "p3")
		if !ok || st != "alive" {
			t.Errorf("%s's view of the rejoined peer = %q, want alive", owner, st)
		}
		if inc <= incBefore {
			t.Errorf("%s holds incarnation %d for the rejoined peer, want > %d (the dead declaration's)", owner, inc, incBefore)
		}
	}
	if !sys.Net.Alive("p3") {
		t.Error("rejoined peer's node is still down")
	}
}

// TestJoinSeedValidation: joins through missing, dead, or self seeds
// are rejected instead of half-creating membership.
func TestJoinSeedValidation(t *testing.T) {
	sys, _ := gossipLab(t, 3, GossipOptions{Seed: 1})
	if _, err := sys.JoinPeer("new", "ghost"); err == nil {
		t.Error("join through an unknown seed was accepted")
	}
	sys.Net.Crash("p1")
	if _, err := sys.JoinPeer("new", "p1"); err == nil {
		t.Error("join through a crashed seed was accepted")
	}
	if _, err := sys.JoinPeer("new", "new"); err == nil {
		t.Error("self-seeded join was accepted")
	}
}

// TestJoinedPeerBecomesFailoverTarget: the supervisor migrates a
// crashed relay onto a peer that was admitted at runtime via JoinPeer —
// runtime membership is placement-eligible without any registration
// step (the join-protocol half of "supervisor placement on joined
// peers").
func TestJoinedPeerBecomesFailoverTarget(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	mgr := sys.MustAddPeer("mgr")
	src := sys.MustAddPeer("src.com")
	registerService(src)
	client := sys.MustAddPeer("c.com")
	sys.MustAddPeer("w1")
	for _, busy := range []string{"src.com", "c.com", "mgr"} {
		sys.Net.AddLoad(busy, 1000)
	}
	task, err := mgr.DeployPlan(relayPlan("src.com", "w1", "mgr", "elastic"))
	if err != nil {
		t.Fatal(err)
	}
	sup := sys.StartGossipSupervisor(GossipOptions{Seed: 19, ProbeInterval: time.Second, Suspicion: 2 * time.Second})

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

	// A fresh worker joins at runtime; then the only original worker
	// dies. The supervisor must place the relay on the joined peer.
	if _, err := sys.JoinPeer("w2", "mgr"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sys.Step(time.Second)
	}
	sys.Net.Crash("w1")
	for i := 0; i < 25 && relayHost(task) == "w1"; i++ {
		sys.Step(time.Second)
	}
	if got := relayHost(task); got != "w2" {
		t.Fatalf("relay migrated to %q, want the runtime-joined w2", got)
	}
	drive(3)
	waitResults(t, sys, task, 6)
	migrated := false
	for _, ev := range sup.Events() {
		if ev.From == "w1" && ev.To == "w2" {
			migrated = true
		}
	}
	if !migrated {
		t.Error("no failover event records the migration onto the joined peer")
	}
	task.Stop()
}
