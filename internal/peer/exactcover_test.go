package peer

import (
	"testing"
)

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool

// TestExactCoverAllocs pins what a subscription whose stream already runs
// allocates from Subscribe to Stop: a 5-source group body, deployed once,
// subscribed again under another channel name and stopped. The reuse
// probe finds the running stream, so the plan is one publisher over a
// channel subscription and nothing else deploys (docs/REUSE.md "What an
// exact cover costs").
func TestExactCoverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops entries at random and the detector allocates")
	}
	const (
		body = `for $e in inCOM(<p>s0</p><p>s1</p><p>s2</p><p>s3</p><p>s4</p>) return $e group on "callee" window "24s" `
		max  = 75
	)
	_, mgr := memoWorld(t, DefaultConfig())
	first, err := mgr.Subscribe(body + `by publish as channel "first"`)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Stop()
	again := body + `by publish as channel "again"`
	cycle := func() {
		task, err := mgr.Subscribe(again)
		if err != nil {
			t.Fatal(err)
		}
		if task.Reuse == nil || task.Reuse.NewOps != 0 || len(task.Reuse.Mappings) != 1 {
			t.Fatalf("not an exact cover: %+v", task.Reuse)
		}
		task.Stop()
	}
	cycle() // the plan memo holds the body from here on
	a := testing.AllocsPerRun(200, cycle)
	if a > max {
		t.Errorf("Subscribe + Stop of an exact cover: %v allocs, want <= %d", a, max)
	}
	t.Logf("Subscribe + Stop of an exact cover: %v allocs", a)
}
