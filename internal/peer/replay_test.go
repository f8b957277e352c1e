package peer

import (
	"fmt"
	"testing"
	"time"

	"p2pm/internal/alerters"
	"p2pm/internal/algebra"
	"p2pm/internal/p2pml"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// replayOptions returns DefaultConfig with the lossless-failover layer
// on.
func replayOptions() Config {
	opts := DefaultConfig()
	opts.Replay.Buffer = 4096
	opts.Replay.CheckpointInterval = 2 * time.Second
	return opts
}

// relayRig is the canonical exactly-once topology: a hand-fed source
// channel at src, a relay operator at w1 (the peer the tests kill),
// publishing at mgr, supervised from mon. A second subscription at mgr,
// reader, republishes the relay's stream as it is: the relay's link to
// mgr carries two consumers, and a move re-binds both.
type relayRig struct {
	sys    *System
	srcCh  *stream.Channel
	task   *Task
	reader *Task
	sup    *Supervisor
	next   int
}

func newRelayRig(t testing.TB, opts Config) *relayRig {
	t.Helper()
	sys := MustSystem(opts)
	for _, name := range []string{"src", "mgr", "mon", "w1", "w2"} {
		sys.MustAddPeer(name)
	}
	for _, busy := range []string{"src", "mgr", "mon"} {
		sys.Net.AddLoad(busy, 100)
	}
	srcCh := stream.NewChannel("src", "ev")
	sys.registerChannel(srcCh)
	chin := &algebra.Node{Op: algebra.OpChannelIn, Peer: "src", Channel: srcCh.Ref(), Schema: []string{"e"}}
	relay := &algebra.Node{Op: algebra.OpUnion, Peer: "w1", Inputs: []*algebra.Node{chin}, Schema: []string{"e"}}
	plan := &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{relay},
		Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: "out"},
	}
	mgr := sys.Peer("mgr")
	task, err := mgr.DeployPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	var relayRef stream.Ref
	for n, ref := range task.StreamRefs() {
		if n.Op == algebra.OpUnion {
			relayRef = ref
		}
	}
	reader, err := mgr.DeployPlan(&algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Schema: []string{"e"},
		Publish: &algebra.PublishSpec{ChannelID: "copy"},
		Inputs: []*algebra.Node{{
			Op: algebra.OpChannelIn, Peer: relayRef.PeerID, Schema: []string{"e"}, Channel: relayRef,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sup := startTestSupervisor(sys, 2*time.Second)
	return &relayRig{sys: sys, srcCh: srcCh, task: task, reader: reader, sup: sup}
}

// emit publishes the next uniquely-identified event into the source.
func (r *relayRig) emit() {
	r.next++
	tree := xmltree.Elem("e")
	tree.SetAttr("id", fmt.Sprintf("%d", r.next))
	r.srcCh.Publish(stream.Item{Tree: tree, Time: r.sys.Net.Clock().Now()})
}

// syncUntil steps the system (letting anti-entropy sweeps and pending
// detections run) until both subscriptions have settled at least want
// results.
func (r *relayRig) syncUntil(t *testing.T, want int) {
	t.Helper()
	stepUntil(r.sys, func() bool { return r.task.Results().Len() >= want && r.reader.Results().Len() >= want })
}

// stepUntil quiesces the peers' loops, then steps the system a virtual
// second at a time, at most 100 times, until cond holds on processed
// state.
func stepUntil(sys *System, cond func() bool) {
	sys.Quiesce()
	for i := 0; i < 100 && !cond(); i++ {
		sys.Step(time.Second)
		sys.Quiesce()
	}
}

// assertExactlyOnce drains the stopped task's results and checks each id
// in [1, n] arrived exactly once.
func assertExactlyOnce(t *testing.T, task *Task, n int) {
	t.Helper()
	assertQueueExactlyOnce(t, task.ID+" results", task.Results(), n)
}

// assertQueueExactlyOnce drains a closed consumer queue and checks each
// id in [1, n] arrived exactly once.
func assertQueueExactlyOnce(t *testing.T, what string, q *stream.Queue, n int) {
	t.Helper()
	assertItemsExactlyOnce(t, what, q.Drain(), n)
}

// assertItemsExactlyOnce checks each id in [1, n] is in items exactly
// once.
func assertItemsExactlyOnce(t *testing.T, what string, items []stream.Item, n int) {
	t.Helper()
	counts := make(map[string]int)
	for _, it := range items {
		counts[it.Tree.AttrOr("id", "?")]++
	}
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("%d", i)
		switch counts[id] {
		case 1:
		case 0:
			t.Errorf("%s: event %s missing", what, id)
		default:
			t.Errorf("%s: event %s delivered %d times", what, id, counts[id])
		}
	}
	if len(counts) != n {
		t.Errorf("%s: id set has %d entries, want %d (%v)", what, len(counts), n, counts)
	}
}

// TestExactlyOnceAcrossFaultMixes is the end-to-end exactly-once
// property test over hand-picked fault mixes. Its first half runs the
// relay mixes (faultschedule_test.go) through FuzzFaultSchedule's
// runner — every sequence number exactly once, no degradation, two runs
// alike — and holds each to what it is for: a lossy mix must force
// retransmissions, a crash must be detected and move the relay to w2.
//
// The second table holds every kind of consumer edge to the same contract
// (kindsWorld, edge_test.go): the link under one kind's edge suffers a
// drop burst or a partition that heals, or the producer that edge reads
// crashes and moves — and every reader in the deployment, whatever its
// kind, must still end with each event exactly once.
func TestExactlyOnceAcrossFaultMixes(t *testing.T) {
	const events = 20
	for _, mix := range relayMixes {
		t.Run(mix.name, func(t *testing.T) {
			run := checkSchedule(t, mix.schedule)
			if mix.migrates {
				if run.Host != "w2" {
					t.Errorf("relay host = %q, want w2 after migration", run.Host)
				}
				if len(run.Deaths) == 0 {
					t.Error("crash never detected")
				}
			}
			if mix.wantReplay && run.Replayed == 0 {
				t.Error("fault mix should have forced retransmissions")
			}
		})
	}

	// Each kind's edge, by the link it crosses (producer host → consumer).
	kinds := []struct{ name, from, to string }{
		{"operator input", "w1", "pub"},
		{"result reader", "pub", "mgr"}, // manager-local: the link carries nothing live
		{"subscribe target", "pub", "far"},
		{"replica forwarder", "w1", "w3"},
	}
	faults := []struct {
		name string
		// at is called after event i (1-based) has been driven.
		at    func(w *kindsWorld, from, to string, i int)
		lossy bool
	}{
		{
			name: "drop burst",
			at: func(w *kindsWorld, from, to string, i int) {
				switch i {
				case 3:
					w.sys.Net.SetDrop(from, to, 0.6)
				case 13:
					w.sys.Net.SetDrop(from, to, 0)
				}
			},
			lossy: true,
		},
		{
			name: "partition heals",
			at: func(w *kindsWorld, from, to string, i int) {
				switch i {
				case 7:
					w.sys.Net.Partition([]string{from}, []string{to})
				case 14:
					w.sys.Net.Heal()
				}
			},
			lossy: true,
		},
		{
			name: "producer moves",
			at: func(w *kindsWorld, from, _ string, i int) {
				if i == 9 {
					w.sys.Net.Crash(from) //nolint:errcheck // known node
					w.sys.FailPeer(from, w.sys.Net.Clock().Now())
				}
			},
		},
	}
	for _, k := range kinds {
		for _, f := range faults {
			t.Run(k.name+"/"+f.name, func(t *testing.T) {
				w := newKindsWorld(t, replayOptions())
				for i := 1; i <= events; i++ {
					w.emit()
					// The event must have reached the producer end of the
					// link under test before the schedule moves on, or a
					// lagging loop could carry it across after the fault
					// has cleared.
					w.sys.Quiesce()
					w.sys.Step(time.Second)
					f.at(w, k.from, k.to, i)
				}
				settled := func() bool {
					return w.task.Results().Len() >= events && w.mirror.Results().Len() >= events && w.inbox.Len() >= events
				}
				stepUntil(w.sys, settled)
				if f.lossy && k.name != "result reader" && w.sys.ReplayedItems() == 0 {
					t.Error("the fault should have forced retransmissions")
				}
				for _, task := range []*Task{w.task, w.mirror} {
					if got := task.Degraded(); len(got) != 0 {
						t.Errorf("%s degraded: %v", task.ID, got)
					}
				}
				assertEdges(t, w.sys)
				w.task.Stop()
				w.mirror.Stop()
				assertEdges(t, w.sys, w.task, w.mirror)
				assertExactlyOnce(t, w.task, events)
				assertExactlyOnce(t, w.mirror, events)
				assertQueueExactlyOnce(t, "far#inbox", w.inbox, events)
			})
		}
	}
}

// TestCheckpointTailSurvivesPartitionedCrash: outputs published while
// the downstream consumer was partitioned away are not yet delivered
// when the producer crashes — and the producer's retention buffer dies
// with it. The checkpoint's undelivered-output tail must carry them to
// the replacement channel, or the consumer's cursor would SkipTo past a
// permanent hole. (The relay keeps consuming from the source during the
// partition, so the checkpoint's OutSeq covers the undelivered items.)
func TestCheckpointTailSurvivesPartitionedCrash(t *testing.T) {
	const events = 15
	r := newRelayRig(t, replayOptions())
	var relayRef stream.Ref
	for n, ref := range r.task.StreamRefs() {
		if n.Op == algebra.OpUnion {
			relayRef = ref
		}
	}
	for i := 1; i <= 9; i++ {
		r.emit()
		r.sys.Step(time.Second)
		if i == 4 {
			// The relay can still hear the source (and the monitor hears
			// the relay), but nothing reaches the publisher.
			r.sys.Net.Partition([]string{"w1"}, []string{"mgr"})
		}
	}
	// Quiesce the relay and take a *fresh* checkpoint: its input cursor
	// and OutSeq now cover the whole partition window, so only the
	// checkpoint's undelivered-output tail can carry items 5..9 past the
	// crash (input replay resumes after them, and the producer's buffer
	// dies with the host).
	relayCh, _ := r.sys.Channel(relayRef)
	r.sys.Quiesce()
	if relayCh.Seq() < 9 {
		t.Fatalf("relay only published %d/9 before the crash", relayCh.Seq())
	}
	r.sys.CheckpointNow()
	r.sys.Net.Crash("w1") //nolint:errcheck // known node
	for i := 10; i <= events; i++ {
		r.emit()
		r.sys.Step(time.Second)
		if i == 12 {
			r.sys.Net.Heal()
		}
	}
	r.syncUntil(t, events)
	if len(r.sup.Deaths()) == 0 {
		t.Fatal("relay crash never detected")
	}
	r.task.Stop()
	assertExactlyOnce(t, r.task, events)
}

// TestColdAdoptionDoesNotDuplicate: replay on, checkpointing OFF, and
// the migrated operator adopts an announced replica channel that
// already mirrored the pre-crash output. The cold restart replays the
// full input history and re-publishes everything into the adopted
// channel — which must rewind to sequence 0 first, so the re-emission
// lands under the original numbers and downstream cursors drop it. (A
// regression here delivers the entire pre-crash stream twice.)
func TestColdAdoptionDoesNotDuplicate(t *testing.T) {
	const events = 12
	opts := replayOptions()
	opts.Replay.CheckpointInterval = 0 // no checkpoints: cold restarts only
	r := newRelayRig(t, opts)
	var relayRef stream.Ref
	for n, ref := range r.task.StreamRefs() {
		if n.Op == algebra.OpUnion {
			relayRef = ref
		}
	}
	if _, err := r.sys.AnnounceReplica(relayRef, "w2"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 7; i++ {
		r.emit()
		r.sys.Step(time.Second)
	}
	// Quiesce so the replica has mirrored the full pre-crash output: the
	// cold restart's re-emission then maximally overlaps what downstream
	// cursors already saw — the worst case for duplication.
	waitResults(t, r.sys, r.task, 7)
	r.sys.Net.Crash("w1") //nolint:errcheck // known node
	for i := 8; i <= events; i++ {
		r.emit()
		r.sys.Step(time.Second)
	}
	r.syncUntil(t, events)
	var adopted FailoverEvent
	for _, e := range r.sup.Events() {
		if e.From == "w1" && e.Repaired() {
			adopted = e
		}
	}
	if !adopted.ViaReplica || adopted.To != "w2" {
		t.Fatalf("failover = %+v, want adoption of the w2 replica", adopted)
	}
	r.task.Stop()
	assertExactlyOnce(t, r.task, events)
}

// TestCheckpointRestoresDistinctState: duplicate suppression must
// survive a migration. The retention buffer is deliberately smaller than
// the stream history, so only the replicated checkpoint — not a full
// input replay — can carry the Distinct memory to the new host:
// duplicates of the earliest items re-driven after the migration arrive
// with fresh sequence numbers and would re-emit from a cold instance.
func TestCheckpointRestoresDistinctState(t *testing.T) {
	opts := replayOptions()
	opts.Replay.Buffer = 4 // ≪ history: full replay cannot rebuild the state
	opts.Replay.CheckpointInterval = time.Second
	sys := MustSystem(opts)
	for _, name := range []string{"src", "mgr", "mon", "w1", "w2"} {
		sys.MustAddPeer(name)
	}
	for _, busy := range []string{"src", "mgr", "mon"} {
		sys.Net.AddLoad(busy, 100)
	}
	srcCh := stream.NewChannel("src", "ev")
	sys.registerChannel(srcCh)
	chin := &algebra.Node{Op: algebra.OpChannelIn, Peer: "src", Channel: srcCh.Ref(), Schema: []string{"e"}}
	dist := &algebra.Node{Op: algebra.OpDistinct, Peer: "w1", Inputs: []*algebra.Node{chin}, Schema: []string{"e"}}
	plan := &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{dist},
		Schema: []string{"e"}, Publish: &algebra.PublishSpec{ChannelID: "uniq"},
	}
	task, err := sys.Peer("mgr").DeployPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(id int) {
		tree := xmltree.Elem("e")
		tree.SetAttr("id", fmt.Sprintf("%d", id))
		srcCh.Publish(stream.Item{Tree: tree, Time: sys.Net.Clock().Now()})
	}

	for i := 1; i <= 6; i++ {
		emit(i)
		sys.Step(time.Second)
	}
	waitResults(t, sys, task, 6)
	sys.Step(time.Second) // a checkpoint capturing the full Distinct memory
	sys.Step(time.Second)

	events := sys.FailPeer("w1", 0)
	repaired := 0
	for _, e := range events {
		if e.Repaired() {
			repaired++
		}
	}
	if repaired == 0 {
		t.Fatalf("no repairs in %+v", events)
	}
	// Duplicates of the oldest items (long trimmed from the 4-item
	// retention buffer) plus two genuinely new items.
	for _, id := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		emit(id)
		sys.Step(time.Second)
	}
	stepUntil(sys, func() bool { return task.Results().Len() >= 8 })
	task.Stop()
	assertExactlyOnce(t, task, 8)
}

// TestPublisherRedeploysOnHostDeath: PR 1 marked a publisher stranded on
// a dead host Degraded; now the fan-out moves. The named channel reopens
// at a live peer under the same ChannelID, the manager's Results() queue
// keeps filling without duplicates, the human-facing sinks keep
// appending, and an external consumer of the named channel is re-bound
// through the chained replica record.
func TestPublisherRedeploysOnHostDeath(t *testing.T) {
	sys := MustSystem(replayOptions())
	for _, name := range []string{"src", "mgr", "pub", "far", "w2"} {
		sys.MustAddPeer(name)
	}
	for _, busy := range []string{"src", "mgr", "far"} {
		sys.Net.AddLoad(busy, 100)
	}
	srcCh := stream.NewChannel("src", "ev")
	sys.registerChannel(srcCh)
	chin := &algebra.Node{Op: algebra.OpChannelIn, Peer: "src", Channel: srcCh.Ref(), Schema: []string{"e"}}
	plan := &algebra.Node{
		Op: algebra.OpPublish, Peer: "pub", Inputs: []*algebra.Node{chin},
		Schema: []string{"e"},
		Publish: &algebra.PublishSpec{
			ChannelID: "out",
			Targets: []p2pml.ByTarget{
				{Kind: p2pml.ByEmail, Name: "ops@mgr"},
				{Kind: p2pml.BySubscribe, Peer: "far", ChannelID: "inbox"},
			},
		},
	}
	task, err := sys.Peer("mgr").DeployPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	oldNamed := task.ResultChannel()
	if oldNamed.PeerID != "pub" {
		t.Fatalf("named channel at %s, want pub", oldNamed.PeerID)
	}

	// An external task mirrors the named channel.
	mirror := &algebra.Node{
		Op: algebra.OpPublish, Peer: "far", Schema: []string{"e"},
		Publish: &algebra.PublishSpec{ChannelID: "mirror"},
		Inputs: []*algebra.Node{{
			Op: algebra.OpChannelIn, Peer: oldNamed.PeerID, Schema: []string{"e"},
			Channel: oldNamed,
		}},
	}
	t2, err := sys.Peer("far").DeployPlan(mirror)
	if err != nil {
		t.Fatal(err)
	}

	emit := func(id int) {
		tree := xmltree.Elem("e")
		tree.SetAttr("id", fmt.Sprintf("%d", id))
		srcCh.Publish(stream.Item{Tree: tree, Time: sys.Net.Clock().Now()})
	}
	for i := 1; i <= 3; i++ {
		emit(i)
		sys.Step(time.Second)
	}
	waitResults(t, sys, task, 3)
	waitResults(t, sys, t2, 3)

	events := sys.FailPeer("pub", 0)
	repaired := 0
	for _, e := range events {
		if e.Repaired() {
			repaired++
		}
	}
	if repaired == 0 {
		t.Fatalf("publisher not repaired: %+v", events)
	}
	if got := task.Degraded(); len(got) != 0 {
		t.Fatalf("task degraded: %v", got)
	}
	newNamed := task.ResultChannel()
	if newNamed.PeerID == "pub" || newNamed.StreamID != "out" {
		t.Fatalf("named channel after failover = %v, want out@<live peer>", newNamed)
	}
	for i := 4; i <= 6; i++ {
		emit(i)
		sys.Step(time.Second)
	}
	// Every sink must have settled before teardown — the subscribe
	// target's inbox too.
	inbox := sys.Peer("far").Incoming("inbox")
	stepUntil(sys, func() bool { return task.Results().Len() >= 6 && t2.Results().Len() >= 6 && inbox.Len() >= 6 })
	task.Stop()
	t2.Stop()
	assertExactlyOnce(t, task, 6)
	assertExactlyOnce(t, t2, 6)
	if got := task.Mailbox.Len(); got == 0 {
		t.Error("email sink stopped after the publisher migrated")
	}
	// The BySubscribe target's incoming queue is gated by its own
	// cursor: the rebuilt fan-out's re-emissions must not duplicate what
	// the target already received.
	counts := make(map[string]int)
	for {
		it, ok := inbox.TryPop()
		if !ok {
			break
		}
		if !it.EOS() {
			counts[it.Tree.AttrOr("id", "?")]++
		}
	}
	if len(counts) != 6 {
		t.Errorf("subscribe-target received %d distinct ids, want 6 (%v)", len(counts), counts)
	}
	for id, n := range counts {
		if n != 1 {
			t.Errorf("subscribe-target received id %s %d times", id, n)
		}
	}
}

// TestDynAlerterDegradesWithoutReplay: with the replay layer off there
// is no membership history to reconstruct the active set from, so the
// task must visibly degrade (PR 1 semantics) rather than report a repair
// that silently stopped monitoring every already-joined peer.
func TestDynAlerterDegradesWithoutReplay(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	for _, name := range []string{"mgr", "w1", "w2"} {
		sys.MustAddPeer(name)
	}
	driver := algebra.NewAlerter("areRegistered", "membership", "mgr", "j", nil)
	dyn := &algebra.Node{
		Op: algebra.OpDynAlerter, Peer: "w1", Inputs: []*algebra.Node{driver},
		Schema:  []string{"c"},
		Alerter: &algebra.AlerterSpec{Func: "inCOM", Kind: "ws-in"},
	}
	plan := &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{dyn},
		Schema: []string{"c"}, Publish: &algebra.PublishSpec{ChannelID: "watch"},
	}
	task, err := sys.Peer("mgr").DeployPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	sys.FailPeer("w1", 0)
	if got := task.Degraded(); len(got) != 1 {
		t.Fatalf("degraded = %v, want the dyn-alerter manager", got)
	}
	task.Stop()
}

// TestDynAlerterManagerRedeploysOnHostDeath: killing the host of an
// inCOM($j) dynamic-alerter manager no longer degrades the task. The
// new manager replays the membership stream from the driver channel's
// retention buffer, reconstructs the active set, re-attaches the hooks,
// and keeps capturing calls at the monitored peers.
func TestDynAlerterManagerRedeploysOnHostDeath(t *testing.T) {
	sys := MustSystem(replayOptions())
	for _, name := range []string{"mgr", "mon", "w1", "w2"} {
		sys.MustAddPeer(name)
	}
	for _, busy := range []string{"mgr", "mon"} {
		sys.Net.AddLoad(busy, 100)
	}
	driver := algebra.NewAlerter("areRegistered", "membership", "mgr", "j", nil)
	dyn := &algebra.Node{
		Op: algebra.OpDynAlerter, Peer: "w1", Inputs: []*algebra.Node{driver},
		Schema:  []string{"c"},
		Alerter: &algebra.AlerterSpec{Func: "inCOM", Kind: "ws-in"},
	}
	plan := &algebra.Node{
		Op: algebra.OpPublish, Peer: "mgr", Inputs: []*algebra.Node{dyn},
		Schema: []string{"c"}, Publish: &algebra.PublishSpec{ChannelID: "watch"},
	}
	task, err := sys.Peer("mgr").DeployPlan(plan)
	if err != nil {
		t.Fatal(err)
	}

	// svc joins after deployment: the manager attaches an alerter there.
	svc := sys.MustAddPeer("svc")
	svc.Endpoint().Register("ping", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("pong"), nil
	}, nil)
	caller := sys.MustAddPeer("caller")
	waitFor(t, sys, func() bool { return task.DynEventsProcessed() >= 2 }) // svc + caller joins
	if _, err := caller.Endpoint().Invoke("svc", "ping", nil); err != nil {
		t.Fatal(err)
	}
	waitResults(t, sys, task, 1)

	before := task.DynEventsProcessed()
	events := sys.FailPeer("w1", 0)
	repaired := false
	for _, e := range events {
		if e.Repaired() && e.To != "" {
			repaired = true
		}
	}
	if !repaired {
		t.Fatalf("dyn-alerter manager not repaired: %+v", events)
	}
	if got := task.Degraded(); len(got) != 0 {
		t.Fatalf("task degraded: %v", got)
	}
	var dynHost string
	task.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpDynAlerter {
			dynHost = n.Peer
		}
	})
	if dynHost == "w1" || dynHost == "" {
		t.Fatalf("dyn-alerter manager still at %q", dynHost)
	}
	// The replayed membership history (svc join, caller join, w1's own
	// departure) rebuilds the active set before new traffic flows.
	waitFor(t, sys, func() bool { return task.DynEventsProcessed() >= before+3 })
	if _, err := caller.Endpoint().Invoke("svc", "ping", nil); err != nil {
		t.Fatal(err)
	}
	waitResults(t, sys, task, 2)
	task.Stop()
	if got := len(task.Results().Drain()); got != 2 {
		t.Fatalf("results = %d, want 2 (one call per epoch, no duplicates)", got)
	}
}

// TestIdenticalDynamicSetsShareOneSet: a second inCOM($j) subscription
// identical to a running one reads the first one's stream instead of
// deploying a second alerter set, so every peer that joins carries one
// alerter for both. Both tasks see the same calls before and after the
// set's host dies.
func TestIdenticalDynamicSetsShareOneSet(t *testing.T) {
	sys := MustSystem(replayOptions())
	for _, name := range []string{"mgr", "mon", "w1", "w2"} {
		sys.MustAddPeer(name)
	}
	for _, busy := range []string{"mgr", "mon"} {
		sys.Net.AddLoad(busy, 100)
	}
	const src = `for $j in areRegistered(<p>mgr</p>) for $c in inCOM($j) return $c by publish as channel "watch"`
	a, err := sys.Peer("w1").Subscribe(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Peer("w1").Subscribe(src)
	if err != nil {
		t.Fatal(err)
	}
	var aOut stream.Ref // the stream A's publisher reads
	for n, ref := range a.StreamRefs() {
		if n == a.Plan.Inputs[0] {
			aOut = ref
		}
	}
	if m := b.Reuse.Mappings; len(m) != 1 || m[0].Original != aOut || b.Reuse.NewOps != 0 {
		t.Errorf("B's reuse: mappings %+v, %d new operators; want one mapping onto %v and none", m, b.Reuse.NewOps, aOut)
	}
	b.Plan.Walk(func(n *algebra.Node) {
		if n.Op != algebra.OpPublish && n.Op != algebra.OpChannelIn {
			t.Errorf("B deploys %s", n.Label())
		}
	})

	svc := sys.MustAddPeer("svc")
	svc.Endpoint().Register("ping", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("pong"), nil
	}, nil)
	caller := sys.MustAddPeer("caller")
	attachedOnce := func(when string) {
		t.Helper()
		sys.Quiesce()
		for _, p := range []string{"svc", "caller"} {
			if n := attachedAt(sys, p, alerters.Inbound); n != 1 {
				t.Errorf("%s: %s carries %d inCOM alerters, want 1", when, p, n)
			}
		}
	}
	attachedOnce("after the joins")
	if _, err := caller.Endpoint().Invoke("svc", "ping", nil); err != nil {
		t.Fatal(err)
	}
	waitResults(t, sys, a, 1)
	waitResults(t, sys, b, 1)

	// The Π over the set restarts from its checkpoint. A cold restart
	// resumes the set's new channel from a sequence that channel never
	// retained and waits there, losing every call after the repair.
	a.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpDynAlerter && n.Peer != "w1" {
			t.Fatalf("the set runs at %s, not at its subscriber w1", n.Peer)
		}
	})
	sys.CheckpointNow()
	sys.FailPeer("w1", 0)
	if da, db := a.Degraded(), b.Degraded(); len(da)+len(db) != 0 {
		t.Fatalf("degraded: A %v, B %v", da, db)
	}
	attachedOnce("after the failover")
	if _, err := caller.Endpoint().Invoke("svc", "ping", nil); err != nil {
		t.Fatal(err)
	}
	waitResults(t, sys, a, 2)
	waitResults(t, sys, b, 2)

	// B first: stopping A would close the stream B reads (docs/REUSE.md
	// "Known gap").
	b.Stop()
	a.Stop()
	got, want := b.Results().Drain(), a.Results().Drain()
	if len(want) != 2 || len(got) != len(want) {
		t.Fatalf("A got %d results, B %d; want 2 each", len(want), len(got))
	}
	for i := range want {
		if got[i].Tree.String() != want[i].Tree.String() {
			t.Errorf("result %d: A %s, B %s", i, want[i].Tree, got[i].Tree)
		}
	}
}
