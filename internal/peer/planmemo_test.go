package peer

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"p2pm/internal/p2pml"
	"p2pm/internal/stream"
)

// memoWorld is a manager with every peer the plan-memo tests' sources
// name: the p2pmlc examples' a.com, b.com and meteo.com, and s0..s15.
func memoWorld(t *testing.T, cfg Config) (*System, *Peer) {
	t.Helper()
	sys := MustSystem(cfg)
	mgr := sys.MustAddPeer("mgr")
	for _, name := range []string{"a.com", "b.com", "meteo.com"} {
		sys.MustAddPeer(name)
	}
	for i := 0; i < 16; i++ {
		sys.MustAddPeer(fmt.Sprintf("s%d", i))
	}
	return sys, mgr
}

// memoEntries reads the size of p's plan memo.
func memoEntries(p *Peer) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.memo)
}

// rebody gives src, a subscription, another BY clause.
func rebody(t *testing.T, src, by string) string {
	t.Helper()
	sub, err := p2pml.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return sub.Body() + " by " + by
}

// TestPlanMemoMatchesExplain holds a subscription whose body the manager
// compiled moments earlier to the uncached chain: for each p2pmlc example
// and the control-plane benchmark's group and select shapes, X is
// subscribed, then Y, X's body with another BY. Y is a memo hit, and its
// deployed plan and reuse result are the last stage of System.Explain(Y)
// run just before. Every task stays live, so the memo holds every body at
// once: bodies that share a FOR clause (the group example and the group
// shape, the two selects) must not be confused.
func TestPlanMemoMatchesExplain(t *testing.T) {
	files, err := filepath.Glob("../../cmd/p2pmlc/testdata/*.p2pml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no p2pmlc examples: %v", err)
	}
	type example struct{ name, src string }
	var cases []example
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, example{filepath.Base(f), string(b)})
	}
	cases = append(cases,
		example{"control-plane group", `for $e in inCOM(<p>s0</p><p>s1</p><p>s2</p><p>s3</p>) return $e group on "callee" window "24s" by publish as channel "g0"`},
		example{"control-plane select m1", `for $e in inCOM(<p>s7</p>) where $e.callMethod = "m1" return <hit id="{$e.callId}"/> by publish as channel "t1"`},
		example{"control-plane select m2", `for $e in inCOM(<p>s7</p>) where $e.callMethod = "m2" return <hit id="{$e.callId}"/> by publish as channel "t2"`},
	)
	sys, mgr := memoWorld(t, DefaultConfig())
	for i, c := range cases {
		x, err := mgr.Subscribe(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		defer x.Stop()
		y := rebody(t, c.src, fmt.Sprintf(`publish as channel "memo%d"`, i))
		ex, err := sys.Explain(y, mgr.Name())
		if err != nil {
			t.Fatal(err)
		}
		hits := sys.memoHits.Value()
		task, err := mgr.Subscribe(y)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		defer task.Stop()
		if sys.memoHits.Value() != hits+1 {
			t.Errorf("%s: Y compiled again", c.name)
		}
		sameAsExplained(t, c.name, ex, task)
	}
	if n := memoEntries(mgr); n != len(cases) {
		t.Errorf("memo holds %d bodies, want %d", n, len(cases))
	}
}

// sameAsExplained fails unless task deployed the last stage of ex.
func sameAsExplained(t *testing.T, name string, ex *Explanation, task *Task) {
	t.Helper()
	want, got := ex.Reuse, task.Reuse
	if want == nil || got == nil {
		t.Fatalf("%s: no reuse stage", name)
	}
	if w, g := want.Plan.Tree(), task.Plan.Tree(); w != g {
		t.Errorf("%s: explained\n%s\nbut deployed\n%s", name, w, g)
	}
	if !reflect.DeepEqual(want.Mappings, got.Mappings) || want.NewOps != got.NewOps ||
		want.ReusedOps != got.ReusedOps || want.Lookups != got.Lookups {
		t.Errorf("%s: explained reuse %+v, new %d, reused %d, %d lookups; deployed %+v, %d, %d, %d", name,
			want.Mappings, want.NewOps, want.ReusedOps, want.Lookups, got.Mappings, got.NewOps, got.ReusedOps, got.Lookups)
	}
}

// TestPlanMemoProbeStillAsks: a memo hit whose stream has stopped gets no
// stopped stream. X and Y share a body and Y reads X's stream; once X
// stops, its streams are retracted, so Z, a third subscription of the
// body, misses at the probe and the bottom-up pass covers it from what
// still runs, as System.Explain(Z) does.
func TestPlanMemoProbeStillAsks(t *testing.T) {
	sys, mgr := memoWorld(t, DefaultConfig())
	const x = `for $e in inCOM(<p>s0</p><p>s1</p>) where $e.callMethod = "m1" return <hit id="{$e.callId}"/> by publish as channel "x"`
	first, err := mgr.Subscribe(x)
	if err != nil {
		t.Fatal(err)
	}
	second, err := mgr.Subscribe(rebody(t, x, `publish as channel "y"`))
	if err != nil {
		t.Fatal(err)
	}
	defer second.Stop()
	first.Stop()
	z := rebody(t, x, `publish as channel "z"`)
	ex, err := sys.Explain(z, mgr.Name())
	if err != nil {
		t.Fatal(err)
	}
	task, err := mgr.Subscribe(z)
	if err != nil {
		t.Fatal(err)
	}
	defer task.Stop()
	if sys.memoHits.Value() != 2 {
		t.Errorf("%d memo hits, want 2", sys.memoHits.Value())
	}
	for _, m := range task.Reuse.Mappings {
		for _, ref := range first.StreamRefs() {
			if m.Original == ref {
				t.Errorf("Z reuses %v, a stream of the stopped X", m.Original)
			}
		}
	}
	sameAsExplained(t, "after the provider stopped", ex, task)
}

// TestPlanMemoBound: an entry lives exactly while a live task the
// manager subscribed was compiled from it. 1 000 subscribe/stop cycles
// over 50 bodies leave the memo empty, N identical live subscriptions
// hold one entry, and a failed deploy and a re-homed task hand theirs
// back.
func TestPlanMemoBound(t *testing.T) {
	sys, mgr := memoWorld(t, DefaultConfig())
	body := func(i int) string {
		return fmt.Sprintf(`for $e in inCOM(<p>s%d</p>) where $e.callMethod = "m%d" return <hit id="{$e.callId}"/>`, i%50%16, i%50)
	}
	var live []*Task
	for i := 0; i < 1000; i++ {
		task, err := mgr.Subscribe(body(i) + fmt.Sprintf(` by publish as channel "c%d"`, i))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, task)
		if len(live) > 60 {
			live[0].Stop()
			live = live[1:]
		}
		if n := memoEntries(mgr); n > len(live) {
			t.Fatalf("cycle %d: %d entries for %d live tasks", i, n, len(live))
		}
	}
	if n := memoEntries(mgr); n != 50 {
		t.Errorf("%d entries for 60 live tasks over 50 bodies, want 50", n)
	}
	// The subscription database holds the live tasks, in ID order, and
	// the channel registry their channels: nothing of the stopped ones.
	byID := slices.Clone(live)
	slices.SortFunc(byID, func(a, b *Task) int { return strings.Compare(a.ID, b.ID) })
	if got := mgr.Tasks(); !slices.Equal(got, byID) {
		t.Errorf("the database lists %d tasks, want the %d live ones in ID order", len(got), len(byID))
	}
	want := make(map[stream.Ref]*stream.Channel)
	for _, task := range live {
		for _, ch := range task.channels {
			want[ch.Ref()] = ch
		}
	}
	sys.mu.Lock()
	registered := maps.Clone(sys.channels)
	sys.mu.Unlock()
	if !maps.Equal(registered, want) {
		t.Errorf("%d channels registered, want the live tasks' %d", len(registered), len(want))
	}
	for _, task := range live {
		task.Stop()
	}
	if n := memoEntries(mgr); n != 0 {
		t.Errorf("%d entries after every task stopped, want 0", n)
	}

	var same []*Task
	for i := 0; i < 20; i++ {
		task, err := mgr.Subscribe(body(0) + " by email \"ops\"")
		if err != nil {
			t.Fatal(err)
		}
		same = append(same, task)
	}
	if n := memoEntries(mgr); n != 1 {
		t.Errorf("20 identical live subscriptions hold %d entries, want 1", n)
	}
	for _, task := range same {
		task.Stop()
		task.Stop() // a second Stop hands back nothing
	}
	if n := memoEntries(mgr); n != 0 {
		t.Errorf("%d entries after the identical tasks stopped, want 0", n)
	}

	// A deploy that fails stops its task, which hands its count back.
	if _, err := mgr.Subscribe(`for $x in channel("gone@s0") return $x by publish as channel "never"`); err == nil {
		t.Fatal("a subscription to a channel that does not exist deployed")
	}
	if n := memoEntries(mgr); n != 0 {
		t.Errorf("%d entries after a failed deploy, want 0", n)
	}

	// A task whose manager dies moves to another manager's database; the
	// dead manager's memo lets it go.
	m2 := sys.MustAddPeer("m2")
	moved, err := m2.Subscribe(body(1) + ` by publish as channel "moved"`)
	if err != nil {
		t.Fatal(err)
	}
	defer moved.Stop()
	if n := memoEntries(m2); n != 1 {
		t.Fatalf("%d entries at m2, want 1", n)
	}
	sys.FailPeer("m2", 0)
	if moved.Manager == "m2" {
		t.Fatal("the task was not re-homed")
	}
	if n := memoEntries(m2); n != 0 {
		t.Errorf("%d entries at the dead manager after its task was re-homed, want 0", n)
	}
}

// TestPlanMemoRace: eight goroutines subscribe one body at one manager
// while another stops the tasks as they come; every subscription
// deploys and the memo ends empty. Run it under -race. The stream a
// subscription's reuse pass found can stop before deploy subscribes to
// it; the subscription then covers its plan again from what still runs.
func TestPlanMemoRace(t *testing.T) {
	_, mgr := memoWorld(t, DefaultConfig())
	const body = `for $e in inCOM(<p>s3</p><p>s4</p>) where $e.callMethod = "m3" return <hit id="{$e.callId}"/>`
	tasks := make(chan *Task, 16)
	stopped := make(chan struct{})
	go func() {
		for task := range tasks {
			task.Stop()
		}
		close(stopped)
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				task, err := mgr.Subscribe(fmt.Sprintf(`%s by publish as channel "r%d_%d"`, body, g, i))
				if err != nil {
					t.Errorf("subscription %d of goroutine %d: %v", i, g, err)
					continue
				}
				tasks <- task
			}
		}(g)
	}
	wg.Wait()
	close(tasks)
	<-stopped
	if n := memoEntries(mgr); n != 0 {
		t.Errorf("%d entries after every task stopped, want 0", n)
	}
}
