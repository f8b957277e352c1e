package peer

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// gossipLab builds a small system with a gossip detector: nPeers named
// p0..pN-1, default network, seeded deterministically.
func gossipLab(t *testing.T, nPeers int, opts GossipOptions) (*System, *GossipDetector) {
	t.Helper()
	sys := MustSystem(DefaultConfig())
	for i := 0; i < nPeers; i++ {
		sys.MustAddPeer(fmt.Sprintf("p%d", i))
	}
	return sys, sys.StartGossipDetector(opts)
}

// TestOneDetectorPerSystem: a System holds one membership view; starting
// a second detector is a programming error, like a registry kind clash.
func TestOneDetectorPerSystem(t *testing.T) {
	sys, _ := gossipLab(t, 3, GossipOptions{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("a second StartGossipDetector on one System must panic")
		}
	}()
	sys.StartGossipDetector(GossipOptions{Seed: 2})
}

// timeline records detector events for comparison.
type timeline []string

func recordTimeline(det *GossipDetector, tl *timeline) {
	det.OnDeath(func(peer string, at time.Duration) {
		*tl = append(*tl, fmt.Sprintf("dead %s @%v", peer, at))
	})
	det.OnRecover(func(peer string, at time.Duration) {
		*tl = append(*tl, fmt.Sprintf("recovered %s @%v", peer, at))
	})
}

// TestGossipDetectsCrashAndRecovery: the aggregate confirms a crashed
// member dead within a bounded number of protocol periods, and
// un-confirms it after it recovers (incarnation-bumped refutation).
func TestGossipDetectsCrashAndRecovery(t *testing.T) {
	sys, det := gossipLab(t, 5, GossipOptions{Seed: 7, ProbeInterval: time.Second, Suspicion: 2 * time.Second})
	var tl timeline
	recordTimeline(det, &tl)

	for i := 0; i < 5; i++ { // healthy warm-up
		sys.Step(time.Second)
	}
	if len(tl) != 0 {
		t.Fatalf("events on a healthy membership: %v", tl)
	}

	sys.Net.Crash("p2")
	deadline := 25
	for i := 0; i < deadline && len(det.Suspects()) == 0; i++ {
		sys.Step(time.Second)
	}
	if got := det.Suspects(); len(got) != 1 || got[0] != "p2" {
		t.Fatalf("suspects after crash = %v, want [p2] (timeline %v)", got, tl)
	}

	sys.Net.Recover("p2")
	for i := 0; i < deadline && len(det.Suspects()) != 0; i++ {
		sys.Step(time.Second)
	}
	if got := det.Suspects(); len(got) != 0 {
		t.Fatalf("suspects after recovery = %v, want none (timeline %v)", got, tl)
	}
	// The recovered member refuted with a bumped incarnation.
	bumped := false
	for i := 0; i < 5; i++ {
		owner := fmt.Sprintf("p%d", i)
		if owner == "p2" {
			continue
		}
		if st, inc, ok := det.ViewOf(owner, "p2"); ok && st == "alive" && inc > 0 {
			bumped = true
		}
	}
	if !bumped {
		t.Error("no view holds an incarnation-bumped alive record for the recovered peer")
	}
}

// TestGossipDeterministicTimelines: the hard requirement — same seed,
// same fault schedule ⇒ byte-identical suspect/dead/recover timelines,
// however the test binary shuffles or repeats.
func TestGossipDeterministicTimelines(t *testing.T) {
	run := func() timeline {
		sys, det := gossipLab(t, 6, GossipOptions{Seed: 42, ProbeInterval: time.Second, Suspicion: 2 * time.Second})
		var tl timeline
		recordTimeline(det, &tl)
		for i := 0; i < 4; i++ {
			sys.Step(time.Second)
		}
		sys.Net.Crash("p1")
		for i := 0; i < 10; i++ {
			sys.Step(time.Second)
		}
		sys.Net.Crash("p4")
		for i := 0; i < 10; i++ {
			sys.Step(time.Second)
		}
		sys.Net.Recover("p1")
		for i := 0; i < 12; i++ {
			sys.Step(time.Second)
		}
		return tl
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("schedule produced no events at all")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged:\n run1: %v\n run2: %v", a, b)
	}
}

// TestGossipRefutesFalseSuspicion: a short partition raises suspicions
// but, with a suspicion timeout longer than the outage, the refutation
// (incarnation bump gossiped on probe traffic) clears them before any
// view declares death — zero false positives.
func TestGossipRefutesFalseSuspicion(t *testing.T) {
	sys, det := gossipLab(t, 5, GossipOptions{Seed: 3, ProbeInterval: time.Second, Suspicion: 10 * time.Second})
	var tl timeline
	recordTimeline(det, &tl)
	for i := 0; i < 4; i++ {
		sys.Step(time.Second)
	}
	sys.Net.Partition([]string{"p0"}, []string{"p1", "p2", "p3", "p4"})
	for i := 0; i < 3; i++ {
		sys.Step(time.Second)
	}
	sys.Net.Heal()
	for i := 0; i < 15; i++ {
		sys.Step(time.Second)
	}
	if len(tl) != 0 {
		t.Fatalf("false positives despite refutation window: %v", tl)
	}
	for i := 1; i < 5; i++ {
		if st, _, ok := det.ViewOf(fmt.Sprintf("p%d", i), "p0"); !ok || st != "alive" {
			t.Errorf("p%d's view of p0 = %q, want alive", i, st)
		}
	}
}

// TestGossipSupervisorSurvivesHomePartition is the acceptance scenario
// for decentralized detection: the monitor peer — where a single-home
// detector would live — is partitioned away, the relay host crashes
// afterwards, and the gossip supervisor still detects the crash and
// migrates the operator without declaring any healthy peer dead.
func TestGossipSupervisorSurvivesHomePartition(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	mgr := sys.MustAddPeer("mgr")
	src := sys.MustAddPeer("src.com")
	registerService(src)
	client := sys.MustAddPeer("c.com")
	sys.MustAddPeer("w1")
	sys.MustAddPeer("w2")
	sys.MustAddPeer("mon")
	for _, busy := range []string{"src.com", "c.com", "mon", "mgr"} {
		sys.Net.AddLoad(busy, 10)
	}
	task, err := mgr.DeployPlan(relayPlan("src.com", "w1", "mgr", "survive"))
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

	// The monitor is cut off from everyone else.
	sys.Net.Partition([]string{"mon"}, []string{"mgr", "src.com", "c.com", "w1", "w2"})
	for i := 0; i < 12; i++ {
		sys.Step(time.Second)
	}
	// Now the relay host actually dies.
	sys.Net.Crash("w1")
	for i := 0; i < 25; i++ {
		sys.Step(time.Second)
	}
	drive(3)

	relayDeaths := 0
	for _, d := range sup.Deaths() {
		switch d {
		case "w1":
			relayDeaths++
		case "mon":
			// The isolated peer being treated as dead is correct, not a
			// false positive.
		default:
			t.Errorf("healthy peer %s declared dead — the quorum view must shield it", d)
		}
	}
	if relayDeaths != 1 {
		t.Errorf("relay deaths = %d, want 1", relayDeaths)
	}
	migratedTo := ""
	for _, ev := range sup.Events() {
		if ev.From == "w1" && ev.Repaired() {
			migratedTo = ev.To
		}
	}
	if migratedTo != "w2" {
		t.Errorf("relay migrated to %q, want w2", migratedTo)
	}
	waitResults(t, sys, task, 6) // pre-partition 3 + post-migration 3
	task.Stop()
}

// TestGossipQuorumShieldsAgainstLonePeer: while partitioned, the
// isolated peer's view declares everyone dead — but the quorum rule
// keeps those lone votes out of the aggregate, so only the isolated
// peer itself is confirmed dead.
func TestGossipQuorumShieldsAgainstLonePeer(t *testing.T) {
	sys, det := gossipLab(t, 6, GossipOptions{Seed: 5, ProbeInterval: time.Second, Suspicion: 2 * time.Second})
	var tl timeline
	recordTimeline(det, &tl)
	for i := 0; i < 4; i++ {
		sys.Step(time.Second)
	}
	sys.Net.Partition([]string{"p0"}, []string{"p1", "p2", "p3", "p4", "p5"})
	for i := 0; i < 30; i++ {
		sys.Step(time.Second)
	}
	got := det.Suspects()
	if len(got) != 1 || got[0] != "p0" {
		t.Fatalf("confirmed dead = %v, want exactly [p0] — the lone partitioned view must not poison the quorum", got)
	}
	// p0's own view HAS declared others dead (it is blind), proving the
	// aggregate did the shielding, not luck.
	lone := 0
	for i := 1; i < 6; i++ {
		if st, _, ok := det.ViewOf("p0", fmt.Sprintf("p%d", i)); ok && st == "dead" {
			lone++
		}
	}
	if lone == 0 {
		t.Error("isolated peer's view never went blind — partition did not bite?")
	}
}

// slowLinks injects extra delay on every link touching victim, both
// directions — the peer is alive but slow, the classic gossip
// false-positive trap.
func slowLinks(sys *System, nPeers int, victim string, d time.Duration, drop float64) {
	for i := 0; i < nPeers; i++ {
		p := fmt.Sprintf("p%d", i)
		if p == victim {
			continue
		}
		sys.Net.SetExtraDelay(p, victim, d)
		sys.Net.SetExtraDelay(victim, p, d)
		sys.Net.SetDrop(p, victim, drop)
		sys.Net.SetDrop(victim, p, drop)
	}
}

func deathsOf(tl timeline, peer string) int {
	n := 0
	for _, e := range tl {
		if strings.HasPrefix(e, "dead "+peer+" ") {
			n++
		}
	}
	return n
}

// TestGossipAdaptiveShieldsSlowPeer is the Lifeguard acceptance
// scenario: under an aggressive static configuration a delayed-but-alive
// peer is falsely declared dead, while the identical schedule with
// Adaptive enabled kills nobody — local health scaling stretches the
// probe timeout until re-probes reach the slow peer again.
func TestGossipAdaptiveShieldsSlowPeer(t *testing.T) {
	run := func(adaptive bool) (timeline, *GossipDetector) {
		sys, det := gossipLab(t, 5, GossipOptions{
			Seed: 9, ProbeInterval: time.Second, Suspicion: time.Second,
			Adaptive: adaptive,
		})
		var tl timeline
		recordTimeline(det, &tl)
		for i := 0; i < 4; i++ { // healthy warm-up
			sys.Step(time.Second)
		}
		// 400ms per direction pushes direct round-trips (~810ms) and
		// relayed ones (~820ms) beyond the 500ms base timeout, and half
		// the messages are lost outright — alive, but degraded. The
		// refutation path (incarnation bumps on piggyback) stays up,
		// only slower and lossier.
		slowLinks(sys, 5, "p3", 400*time.Millisecond, 0.5)
		for i := 0; i < 40; i++ {
			sys.Step(time.Second)
		}
		return tl, det
	}

	staticTL, _ := run(false)
	if deathsOf(staticTL, "p3") == 0 {
		t.Fatalf("static config did not false-kill the slow peer — scenario lost its teeth (timeline %v)", staticTL)
	}

	adaptiveTL, det := run(true)
	if n := deathsOf(adaptiveTL, "p3"); n != 0 {
		t.Fatalf("adaptive config declared the slow-but-alive peer dead %d times: %v", n, adaptiveTL)
	}
	// The shield must come from health scaling, not luck: some prober
	// raised its local health score while its probes timed out.
	maxHealth := 0
	for i := 0; i < 5; i++ {
		if h := det.HealthOf(fmt.Sprintf("p%d", i)); h > maxHealth {
			maxHealth = h
		}
	}
	if maxHealth == 0 {
		t.Error("no view raised its health score under injected delay")
	}
}

// TestGossipAdaptiveStillDetectsCrash: health scaling must not blunt
// true-crash detection — a genuinely dead peer is still confirmed within
// the same bounded deadline the static detector gets.
func TestGossipAdaptiveStillDetectsCrash(t *testing.T) {
	sys, det := gossipLab(t, 5, GossipOptions{
		Seed: 7, ProbeInterval: time.Second, Suspicion: 2 * time.Second, Adaptive: true,
	})
	var tl timeline
	recordTimeline(det, &tl)
	for i := 0; i < 5; i++ {
		sys.Step(time.Second)
	}
	sys.Net.Crash("p2")
	for i := 0; i < 25 && len(det.Suspects()) == 0; i++ {
		sys.Step(time.Second)
	}
	if got := det.Suspects(); len(got) != 1 || got[0] != "p2" {
		t.Fatalf("suspects after crash = %v, want [p2] (timeline %v)", got, tl)
	}
}
