package peer

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"p2pm/internal/telemetry"
)

// liveChannels counts the channels registered with sys.
func liveChannels(sys *System) int {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	return len(sys.channels)
}

// TestStoppedTaskIsNotRepaired: a stopped task is out of its manager's
// subscription database, so no repair phase finds it. Both tasks of the
// relay rig stop, then the relay's host fails: no event, nothing
// subscribes to the source again, and the database is empty.
func TestStoppedTaskIsNotRepaired(t *testing.T) {
	r := newRelayRig(t, replayOptions())
	r.emit()
	r.syncUntil(t, 1)
	r.task.Stop()
	r.reader.Stop()
	if ts := r.sys.Peer("mgr").Tasks(); len(ts) != 0 {
		t.Errorf("the database lists %d stopped tasks", len(ts))
	}
	if events := r.sys.FailPeer("w1", r.sys.Net.Clock().Now()); len(events) != 0 {
		t.Errorf("failing w1 repaired stopped tasks: %+v", events)
	}
	if n := r.srcCh.SubscriberCount(); n != 0 {
		t.Errorf("the source has %d subscribers after both tasks stopped", n)
	}
	if es := r.sys.edgesOf(r.srcCh.Ref()); len(es) != 0 {
		t.Errorf("%d edges indexed on the source", len(es))
	}
	if ts := r.sys.Peer("mgr").Tasks(); len(ts) != 0 {
		t.Errorf("the database lists %d tasks after the failure", len(ts))
	}
}

// TestStoppedTasksCostNoCheckpoints: the checkpoint sweep walks the
// running tasks, not every task there ever was. After 500 subscribe/stop
// cycles a system writes as many checkpoints over 20 Steps as the same
// system with no stopped task.
func TestStoppedTasksCostNoCheckpoints(t *testing.T) {
	const sub = `for $e in inCOM(<p>s0</p>) where $e.callMethod = "m1" return <hit id="{$e.callId}"/> by publish as channel "%s"`
	puts := func(cycles int) uint64 {
		sys, mgr := memoWorld(t, replayOptions())
		for i := 0; i < cycles; i++ {
			task, err := mgr.Subscribe(fmt.Sprintf(sub, fmt.Sprintf("c%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			task.Stop()
		}
		live, err := mgr.Subscribe(fmt.Sprintf(sub, "live"))
		if err != nil {
			t.Fatal(err)
		}
		defer live.Stop()
		sys.DB.ResetLoad()
		for i := 0; i < 20; i++ {
			sys.Step(time.Second)
		}
		var n uint64
		for _, l := range sys.DB.CheckpointLoad() {
			n += l.Puts
		}
		return n
	}
	want := puts(0)
	if want == 0 {
		t.Fatal("the live task wrote no checkpoint")
	}
	if got := puts(500); got != want {
		t.Errorf("20 Steps after 500 stopped tasks write %d checkpoints, want %d", got, want)
	}
}

// TestStopUnregistersChannels: Stop unregisters the channels it closes,
// so nothing can subscribe to them afterwards, and the gauges read what
// runs: subscription_tasks and stream_channels fall back to 0, while
// stream_replay_trimmed, a running total, keeps the stopped channels'
// count.
func TestStopUnregistersChannels(t *testing.T) {
	cfg := replayOptions()
	cfg.Replay.Buffer = 2
	cfg.Telemetry.Registry = telemetry.NewRegistry()
	sys, mgr := memoWorld(t, cfg)
	registerService(sys.Peer("s0"))
	task, err := mgr.Subscribe(`for $e in inCOM(<p>s0</p>) return $e by publish as channel "raw"`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := sys.Peer("a.com").Endpoint().Invoke("s0", "Q", nil); err != nil {
			t.Fatal(err)
		}
	}
	sys.Quiesce()
	gauge := func(name string) int64 {
		for _, m := range cfg.Telemetry.Registry.Snapshot().Metrics {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("no series %s", name)
		return 0
	}
	if n := gauge("subscription_tasks"); n != 1 {
		t.Errorf("subscription_tasks = %d with one task running, want 1", n)
	}
	if n := gauge("stream_channels"); n != int64(len(task.channels)) || n == 0 {
		t.Errorf("stream_channels = %d, want the task's %d", n, len(task.channels))
	}
	trimmed := gauge("stream_replay_trimmed")
	if trimmed == 0 {
		t.Fatal("a 2-item replay buffer trimmed nothing of 8 items")
	}
	task.Stop()
	if _, _, err := sys.SubscribeChannel(task.ResultChannel(), "a.com"); err == nil || !strings.Contains(err.Error(), "unknown channel") {
		t.Errorf("subscribing to a stopped task's channel: err = %v, want unknown channel", err)
	}
	if n := gauge("subscription_tasks"); n != 0 {
		t.Errorf("subscription_tasks = %d after Stop, want 0", n)
	}
	if n := gauge("stream_channels"); n != 0 {
		t.Errorf("stream_channels = %d after Stop, want 0", n)
	}
	if n := gauge("stream_replay_trimmed"); n < trimmed {
		t.Errorf("stream_replay_trimmed went down from %d to %d when the channels left", trimmed, n)
	}
}

// TestStopRacesStepAndFailPeer: tasks stop on one goroutine while
// another steps the system (sweeps, checkpoints) and fails the peer
// hosting their relays. Run it under -race. Whatever the interleaving, a
// walk never works on a task Stop is tearing down, and when every Stop
// has returned nothing is left: no task in any database, no registered
// channel, no subscriber at any source alerter's channel.
func TestStopRacesStepAndFailPeer(t *testing.T) {
	sys := MustSystem(replayOptions())
	mgr := sys.MustAddPeer("mgr")
	src := sys.MustAddPeer("src.com")
	registerService(src)
	client := sys.MustAddPeer("c.com")
	for _, name := range []string{"w1", "w2", "mon"} {
		sys.MustAddPeer(name)
	}
	var tasks []*Task
	for i := 0; i < 12; i++ {
		task, err := mgr.DeployPlan(relayPlan("src.com", "w1", "mgr", fmt.Sprintf("out%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	// Half the tasks stop against the first Steps, the other half
	// against the failure's repair.
	failing, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for i, task := range tasks {
			if i == len(tasks)/2 {
				<-failing
			}
			task.Stop()
			runtime.Gosched()
		}
	}()
	for i := 0; i < 6; i++ {
		client.Endpoint().Invoke("src.com", "Q", nil) //nolint:errcheck // a call after its tasks stopped reaches no alerter
		sys.Step(time.Second)
		if i == 2 {
			close(failing)
			sys.FailPeer("w1", sys.Net.Clock().Now())
		}
	}
	<-stopped
	sys.Quiesce()
	for _, name := range sys.Peers() {
		if ts := sys.Peer(name).Tasks(); len(ts) != 0 {
			t.Errorf("%s's database lists %d tasks after every Stop", name, len(ts))
		}
	}
	if n := liveChannels(sys); n != 0 {
		t.Errorf("%d channels registered after every Stop", n)
	}
	for _, task := range tasks {
		if n := len(sys.edgesOf(task.resultCh.Ref())); n != 0 {
			t.Errorf("%s: %d edges indexed on its result channel", task.ID, n)
		}
	}
}

// ringKeys counts the keys every member of sys's ring stores.
func ringKeys(sys *System) int {
	n := 0
	for _, name := range sys.Ring.Nodes() {
		n += sys.Ring.KeysAt(name)
	}
	return n
}

// TestStoppedTaskLeavesNothingInTheDHT: a stopped task takes its records
// out of the DHT with its descriptors — the checkpoints the sweep wrote
// for it and the stats records of its streams. 50 cycles of subscribe,
// Step past a checkpoint, RefreshStreamStats and Stop leave the ring's
// stores as they found them, and no checkpoint of a stopped task is
// found.
func TestStoppedTaskLeavesNothingInTheDHT(t *testing.T) {
	const sub = `for $e in inCOM(<p>s0</p>) where $e.callMethod = "m1" return <hit id="{$e.callId}"/> by publish as channel "c%d"`
	sys, mgr := memoWorld(t, replayOptions())
	before := ringKeys(sys)
	var last *Task
	var ops []string
	for i := 0; i < 50; i++ {
		task, err := mgr.Subscribe(fmt.Sprintf(sub, i))
		if err != nil {
			t.Fatal(err)
		}
		sys.Step(2 * time.Second)
		if err := sys.RefreshStreamStats(); err != nil {
			t.Fatal(err)
		}
		if i == 49 {
			for n := range task.procs {
				ops = append(ops, ckptOpID(task, n))
			}
			for _, op := range ops {
				if _, ok, _ := sys.DB.Checkpoint("mgr", task.ID, op); !ok {
					t.Fatalf("the sweep wrote no checkpoint for %s", op)
				}
			}
		}
		task.Stop()
		last = task
	}
	if got := ringKeys(sys); got != before {
		t.Errorf("the ring stores %d keys after 50 subscribe/stop cycles, %d before", got, before)
	}
	for _, op := range ops {
		if _, ok, _ := sys.DB.Checkpoint("mgr", last.ID, op); ok {
			t.Errorf("a checkpoint of the stopped task's %s is still found", op)
		}
	}
}
