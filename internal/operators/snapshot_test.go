package operators

import (
	"fmt"
	"testing"
	"time"

	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

func keyed(id, key string) stream.Item {
	n := xmltree.Elem("e")
	n.SetAttr("id", id)
	n.SetAttr("k", key)
	return stream.Item{Tree: n}
}

func gather(out *[]stream.Item) Emit {
	return func(it stream.Item) {
		if !it.EOS() {
			*out = append(*out, it)
		}
	}
}

// roundTrip snapshots src, restores into dst, and fails the test on
// error. dst must be the same operator kind.
func roundTrip(t *testing.T, src, dst Snapshotter) {
	t.Helper()
	snap := src.Snapshot()
	// The snapshot travels through the DHT as serialized XML: parse it
	// back to prove the codec is lossless, not just the in-memory tree.
	parsed, err := xmltree.Parse(snap.String())
	if err != nil {
		t.Fatalf("snapshot does not re-parse: %v", err)
	}
	if err := dst.Restore(parsed); err != nil {
		t.Fatalf("restore: %v", err)
	}
}

func TestDistinctSnapshotRoundTrip(t *testing.T) {
	var a, b []stream.Item
	d1 := &Distinct{Window: 10 * time.Second}
	emit1 := gather(&a)
	for i := 0; i < 4; i++ {
		it := keyed(fmt.Sprintf("%d", i%2), "x") // ids 0,1,0,1: two dups
		it.Time = time.Duration(i) * time.Second
		d1.Accept(0, it, emit1)
	}
	if len(a) != 2 {
		t.Fatalf("pre-snapshot emissions = %d, want 2", len(a))
	}

	d2 := &Distinct{Window: 10 * time.Second}
	roundTrip(t, d1, d2)
	emit2 := gather(&b)
	// The restored instance must keep suppressing what d1 already saw...
	dup := keyed("0", "x")
	dup.Time = 5 * time.Second
	d2.Accept(0, dup, emit2)
	// ...and still pass genuinely new items.
	fresh := keyed("9", "x")
	fresh.Time = 6 * time.Second
	d2.Accept(0, fresh, emit2)
	if len(b) != 1 || b[0].Tree.AttrOr("id", "") != "9" {
		t.Fatalf("post-restore emissions = %v, want just id=9", b)
	}
	if d2.SeenSize() != d1.SeenSize()+1 {
		t.Errorf("restored seen size = %d, want %d", d2.SeenSize(), d1.SeenSize()+1)
	}
}

func TestJoinSnapshotRoundTrip(t *testing.T) {
	mk := func() *Join {
		return &Join{
			LeftKey:  AttrKey("k"),
			RightKey: AttrKey("k"),
			UseIndex: true,
			Window:   time.Minute,
		}
	}
	var a, b []stream.Item
	j1 := mk()
	emit1 := gather(&a)
	for i := 0; i < 3; i++ {
		it := keyed(fmt.Sprintf("l%d", i), fmt.Sprintf("key%d", i))
		it.Time = time.Duration(i) * time.Second
		j1.Accept(0, it, emit1)
	}
	if len(a) != 0 {
		t.Fatalf("left-only items already matched: %v", a)
	}

	j2 := mk()
	roundTrip(t, j1, j2)
	emit2 := gather(&b)
	// A right item arriving after the migration must find the left
	// history accumulated before it.
	r := keyed("r1", "key1")
	r.Time = 4 * time.Second
	j2.Accept(1, r, emit2)
	if len(b) != 1 {
		t.Fatalf("post-restore matches = %d, want 1 (left history lost?)", len(b))
	}
	pair := b[0].Tree
	if left := pair.Child("left"); left == nil || left.Children[0].AttrOr("id", "") != "l1" {
		t.Errorf("restored join matched the wrong partner: %s", pair)
	}
	if j2.HistorySize() != j1.HistorySize()+1 {
		t.Errorf("restored history size = %d, want %d", j2.HistorySize(), j1.HistorySize()+1)
	}
}

func TestJoinSnapshotSkipsEvictedEntries(t *testing.T) {
	j := &Join{LeftKey: AttrKey("k"), RightKey: AttrKey("k"), UseIndex: true, Window: 2 * time.Second}
	var out []stream.Item
	emit := gather(&out)
	old := keyed("old", "a")
	old.Time = 0
	j.Accept(0, old, emit)
	// Advance both watermarks far enough to evict the old entry.
	l := keyed("l", "b")
	l.Time = 10 * time.Second
	j.Accept(0, l, emit)
	r := keyed("r", "c")
	r.Time = 10 * time.Second
	j.Accept(1, r, emit)

	j2 := &Join{LeftKey: AttrKey("k"), RightKey: AttrKey("k"), UseIndex: true, Window: 2 * time.Second}
	roundTrip(t, j, j2)
	if j2.HistorySize() != j.HistorySize() {
		t.Errorf("restored history = %d live entries, want %d (evicted entries must not resurrect)",
			j2.HistorySize(), j.HistorySize())
	}
}

func TestGroupSnapshotRoundTrip(t *testing.T) {
	mk := func() *Group {
		return &Group{Key: func(n *xmltree.Node) string { return n.AttrOr("k", "") }, Window: 10 * time.Second}
	}
	var a, b []stream.Item
	g1 := mk()
	emit1 := gather(&a)
	for i := 0; i < 5; i++ {
		it := keyed(fmt.Sprintf("%d", i), "alpha")
		it.Time = time.Duration(i) * time.Second // all in window 0
		g1.Accept(0, it, emit1)
	}

	g2 := mk()
	roundTrip(t, g1, g2)
	emit2 := gather(&b)
	it := keyed("5", "alpha")
	it.Time = 5 * time.Second
	g2.Accept(0, it, emit2)
	g2.Flush(emit2)
	if len(b) != 1 {
		t.Fatalf("post-restore flush emitted %d groups, want 1", len(b))
	}
	if got := b[0].Tree.AttrOr("count", ""); got != "6" {
		t.Errorf("restored window count = %s, want 6 (5 pre-crash + 1 post)", got)
	}
}

// TestGroupSnapshotMidWindowWithLate: a watermark-emitting Group is
// snapshotted with open windows and a non-zero Late() counter (a
// straggler arrived after its window was emitted, which also re-opened
// that window's accumulation); the restored instance carries both and,
// fed the identical remainder, re-emits the identical window boundaries
// — the invariant a mid-window migration must preserve.
func TestGroupSnapshotMidWindowWithLate(t *testing.T) {
	mk := func() *Group {
		return &Group{
			Key:       func(n *xmltree.Node) string { return n.AttrOr("k", "") },
			Window:    10 * time.Second,
			EagerEmit: true,
		}
	}
	at := func(key string, sec int) stream.Item {
		it := keyed(fmt.Sprintf("%s-%d", key, sec), key)
		it.Time = time.Duration(sec) * time.Second
		return it
	}
	var head []stream.Item
	g1 := mk()
	emit1 := gather(&head)
	g1.Accept(0, at("alpha", 1), emit1)
	g1.Accept(0, at("alpha", 4), emit1)
	g1.Accept(0, at("beta", 31), emit1) // watermark: window 0 emitted
	if len(head) != 1 || head[0].Tree.AttrOr("window", "") != "0" {
		t.Fatalf("watermark emission = %v, want window 0", head)
	}
	// Straggler: late++, and its delta re-emits immediately (the
	// watermark already passed window 0). Window 3 stays open.
	g1.Accept(0, at("alpha", 2), emit1)
	g1.Accept(0, at("beta", 35), emit1)
	if g1.Late() != 1 {
		t.Fatalf("late = %d, want 1", g1.Late())
	}
	if len(head) != 2 || head[1].Tree.AttrOr("window", "") != "0" || head[1].Tree.AttrOr("count", "") != "1" {
		t.Fatalf("straggler delta not re-emitted before the snapshot: %v", head)
	}

	g2 := mk()
	roundTrip(t, g1, g2)
	if g2.Late() != 1 {
		t.Errorf("restored late counter = %d, want 1", g2.Late())
	}
	// Identical remainder into both instances, then flush: the restored
	// operator must re-emit the exact same window boundaries and counts.
	var tail1, tail2 []stream.Item
	for _, g := range []struct {
		op  *Group
		out *[]stream.Item
	}{{g1, &tail1}, {g2, &tail2}} {
		e := gather(g.out)
		g.op.Accept(0, at("alpha", 37), e)
		g.op.Flush(e)
	}
	if len(tail1) == 0 {
		t.Fatal("no post-snapshot emissions")
	}
	render := func(items []stream.Item) string {
		s := ""
		for _, it := range items {
			s += it.Tree.String() + "\n"
		}
		return s
	}
	if render(tail1) != render(tail2) {
		t.Errorf("restored Group re-emitted different window boundaries:\n got: %s\nwant: %s",
			render(tail2), render(tail1))
	}
	// The open window (3) must close with every pre- and post-snapshot
	// contribution counted once.
	found := false
	for _, it := range tail1 {
		if it.Tree.AttrOr("window", "") == "3" && it.Tree.AttrOr("key", "") == "beta" &&
			it.Tree.AttrOr("count", "") == "2" {
			found = true
		}
	}
	if !found {
		t.Errorf("open window 3 lost contributions across the snapshot: %s", render(tail1))
	}
}

// TestHandleSyncAndConsumed: Sync runs serialized with the processing
// loop and Consumed reports the per-input high-water mark the loop has
// actually accepted.
func TestHandleSyncAndConsumed(t *testing.T) {
	q := stream.NewQueue()
	var out []stream.Item
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	loops := NewLoops()
	h := NewExecutor(loops).Run(&Union{}, []*stream.Queue{q}, func(it stream.Item) {
		<-mu
		if !it.EOS() {
			out = append(out, it)
		}
		mu <- struct{}{}
	})
	for i := 1; i <= 3; i++ {
		it := keyed(fmt.Sprintf("%d", i), "x")
		it.Seq = uint64(i)
		q.Push(it)
	}
	loops.Quiesce() // the loop has drained what we pushed
	var consumed uint64
	h.Sync(func() { consumed = h.Consumed(0) })
	if consumed != 3 {
		t.Errorf("consumed = %d, want 3", consumed)
	}
	q.Close()
	h.Wait()
	// Sync after completion runs inline.
	ran := false
	h.Sync(func() { ran = true })
	if !ran {
		t.Error("Sync on a finished handle did not run")
	}
}
