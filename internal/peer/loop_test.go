package peer

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"p2pm/internal/alerters"
	"p2pm/internal/algebra"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

func pong(*xmltree.Node) (*xmltree.Node, error) { return xmltree.Elem("pong"), nil }

// TestTapBarrierStopDeliversEveryReturnedCall: the monitored call only
// captures its exchange; Stop is a barrier, so N calls that returned and
// an immediate Stop deliver exactly N results, on one core and on two.
func TestTapBarrierStopDeliversEveryReturnedCall(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			sys := MustSystem(DefaultConfig())
			mon := sys.MustAddPeer("mon")
			sys.MustAddPeer("src").Endpoint().Register("ping", pong, nil)
			caller := sys.MustAddPeer("caller").Endpoint()
			for rep := 0; rep < 200; rep++ {
				task, err := mon.DeployPlan(watchPlan("src", fmt.Sprintf("w%d", rep)))
				if err != nil {
					t.Fatal(err)
				}
				n := 1 + rep%9
				for i := 0; i < n; i++ {
					if _, err := caller.Invoke("src", "ping", nil); err != nil {
						t.Fatal(err)
					}
				}
				task.Stop()
				if got := len(task.Results().Drain()); got != n {
					t.Fatalf("rep %d: %d results for %d calls that returned before Stop", rep, got, n)
				}
			}
		})
	}
}

// TestTapBarrierLeave: a p-leave's detach delivers every call that
// returned before it and none made after it returned.
func TestTapBarrierLeave(t *testing.T) {
	sys, task := dynWatch(t, DefaultConfig())
	sys.Peer("svc").Endpoint().Register("ping", pong, nil)
	caller := sys.MustAddPeer("caller").Endpoint()
	const before, after = 25, 10
	for i := 0; i < before; i++ {
		if _, err := caller.Invoke("svc", "ping", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Ring.Leave("svc"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, sys, func() bool { return attachedAt(sys, "svc", alerters.Inbound) == 0 })
	for i := 0; i < after; i++ {
		if _, err := caller.Invoke("svc", "ping", nil); err != nil {
			t.Fatal(err)
		}
	}
	task.Stop()
	got := task.Results().Drain()
	if len(got) != before {
		t.Fatalf("%d alerts, want the %d calls that returned before svc left", len(got), before)
	}
	for i, it := range got {
		if want := fmt.Sprintf("call-%d", i+1); it.Tree.AttrOr("callId", "") != want {
			t.Errorf("alert %d is %s, want %s", i, it.Tree.AttrOr("callId", ""), want)
		}
	}
}

// TestDynAlerterCountsDuplicateJoin: every membership event the manager
// consumes moves DynEventsProcessed — a re-announced join included, so a
// caller waiting for "n events applied" is not left waiting.
func TestDynAlerterCountsDuplicateJoin(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	mgr := sys.MustAddPeer("mgr")
	sys.MustAddPeer("svc")
	task := &Task{}
	driver, out := stream.NewQueue(), stream.NewChannel("mgr", "dyn")
	n := &algebra.Node{Op: algebra.OpDynAlerter, Peer: "mgr", Alerter: &algebra.AlerterSpec{Func: "inCOM", Kind: "ws-in"}}
	h := mgr.runDynAlerter(task, n, driver, out)
	for i, ev := range []string{"p-join", "p-join", "p-leave"} {
		driver.Push(stream.Item{Tree: xmltree.ElemText(ev, "svc")})
		waitFor(t, sys, func() bool { return task.DynEventsProcessed() == uint64(i+1) })
		if got, want := attachedAt(sys, "svc", alerters.Inbound), map[string]int{"p-join": 1}[ev]; got != want {
			t.Fatalf("after event %d (%s): %d alerters attached to svc, want %d", i+1, ev, got, want)
		}
	}
	driver.Close()
	h.Wait()
	if !out.Closed() {
		t.Error("the manager finished without closing its output")
	}
}

// TestGoroutineCensus: a pipeline-sim-shaped system — 8 sources, 3
// workers and a manager, one select+restructure subscription and one
// degree-3 group tree — plus an inCOM($j) subscription watching a peer
// that joins, runs one loop per hosting peer (86 goroutines before the
// loops), and none once the three tasks stopped.
func TestGoroutineCensus(t *testing.T) {
	const sources, workers = 8, 3
	base := runtime.NumGoroutine()
	cfg := DefaultConfig()
	cfg.Agg.Degree = 3
	sys, agg := aggWorld(t, cfg, sources, workers)
	var in strings.Builder
	for i := 0; i < sources; i++ {
		fmt.Fprintf(&in, "<p>s%d</p>", i)
	}
	hits, err := sys.Peer("mgr").Subscribe(`for $e in inCOM(` + in.String() + `) where $e.callMethod = "Q" return <hit id="{$e.callId}"/> by publish as channel "hits"`)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := sys.Peer("mgr").Subscribe(`for $j in areRegistered(<p>mgr/dht</p>) for $c in inCOM($j) return $c by publish as channel "joined"`)
	if err != nil {
		t.Fatal(err)
	}
	sys.MustAddPeer("late")
	waitFor(t, sys, func() bool { return attachedAt(sys, "late", alerters.Inbound) == 1 })
	const calls = 64
	driveAgg(t, sys, sources, calls, time.Second)
	for i := 0; i < calls; i++ {
		if _, ok := hits.Results().Pop(); !ok {
			t.Fatal("hits closed early")
		}
	}
	peers := sources + workers + 1
	if n := runtime.NumGoroutine() - base; n > peers+4 {
		t.Errorf("%d goroutines for %d hosting peers, want at most %d", n, peers, peers+4)
	}
	hits.Stop()
	agg.Stop()
	joined.Stop()
	if n := attachedAt(sys, "late", alerters.Inbound); n != 0 {
		t.Errorf("%d alerters left on late after Stop", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine() - base; n > 0 {
		t.Errorf("%d goroutines left after the tasks stopped", n)
	}
}
