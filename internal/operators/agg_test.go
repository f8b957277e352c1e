package operators

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"

	"p2pm/internal/monoid"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

func aggItem(key string, at time.Duration) stream.Item {
	n := xmltree.Elem("e")
	n.SetAttr("k", key)
	return stream.Item{Tree: n, Time: at}
}

func keyAttr(n *xmltree.Node) string { return n.AttrOr("k", "") }

// driveInline drains an operator run inline: Accept each item, then Flush.
func driveInline(p Proc, items []stream.Item) []stream.Item {
	var out []stream.Item
	emit := func(it stream.Item) { out = append(out, it) }
	for _, it := range items {
		p.Accept(0, it, emit)
	}
	p.Flush(emit)
	return out
}

// readPartial reads a count <partial> into fresh states.
func readPartial(t *xmltree.Node) (int64, map[string]monoid.State, bool) {
	idx, _, states, ok := parsePartial(aggOf(nil), t, &statePool{})
	return idx, states, ok
}

func renderAll(items []stream.Item) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.Tree.String()
	}
	return out
}

// TestAggTreeMatchesFlatGroup is the core invariant: a partial/merge
// tree over partitioned inputs emits exactly what the flat Group emits
// over the union — same records, same window-then-key order, same
// high-water timestamp.
func TestAggTreeMatchesFlatGroup(t *testing.T) {
	w := 10 * time.Second
	var all []stream.Item
	leaves := make([][]stream.Item, 3)
	for i := 0; i < 60; i++ {
		it := aggItem(fmt.Sprintf("key-%d", i%4), time.Duration(i)*time.Second)
		all = append(all, it)
		leaves[i%3] = append(leaves[i%3], it)
	}

	flat := &Group{Key: keyAttr, Window: w}
	want := driveInline(flat, all)

	// Two-level tree: 3 leaves → interior(2 leaves) + leaf 3 → final root.
	root := &MergeAgg{Final: true}
	interior := &MergeAgg{}
	var interiorOut, rootIn []stream.Item
	for i, leafItems := range leaves {
		leaf := &PartialAgg{Key: keyAttr, Window: w}
		partials := driveInline(leaf, leafItems)
		if leaf.PartialsEmitted() != uint64(len(partials)) {
			t.Fatalf("leaf %d emitted %d, counter says %d", i, len(partials), leaf.PartialsEmitted())
		}
		if i < 2 {
			for _, p := range partials {
				interior.Accept(0, p, func(it stream.Item) { interiorOut = append(interiorOut, it) })
			}
		} else {
			rootIn = append(rootIn, partials...)
		}
	}
	interior.Flush(func(it stream.Item) { interiorOut = append(interiorOut, it) })
	rootIn = append(rootIn, interiorOut...)
	got := driveInline(root, rootIn)

	if fmt.Sprint(renderAll(got)) != fmt.Sprint(renderAll(want)) {
		t.Errorf("tree output differs from flat Group:\n tree: %v\n flat: %v", renderAll(got), renderAll(want))
	}
	for i := range got {
		if got[i].Time != want[i].Time {
			t.Errorf("record %d time = %v, flat = %v", i, got[i].Time, want[i].Time)
		}
	}
	if root.Dropped() != 0 {
		t.Errorf("root dropped %d inputs", root.Dropped())
	}
}

// TestPartialAggWatermark checks the leaf's eager emission: a window's
// partial leaves as soon as observed time passes its end by one full
// window, and stragglers accumulate a fresh delta instead of being lost.
func TestPartialAggWatermark(t *testing.T) {
	w := 10 * time.Second
	p := &PartialAgg{Key: keyAttr, Window: w}
	var out []stream.Item
	emit := func(it stream.Item) { out = append(out, it) }

	p.Accept(0, aggItem("a", 1*time.Second), emit)
	p.Accept(0, aggItem("a", 5*time.Second), emit)
	if len(out) != 0 {
		t.Fatalf("emitted before watermark: %v", renderAll(out))
	}
	p.Accept(0, aggItem("b", 31*time.Second), emit) // watermark passes window 0
	if len(out) != 1 {
		t.Fatalf("watermark emission = %d items, want 1", len(out))
	}
	idx, counts, ok := readPartial(out[0].Tree)
	if !ok || idx != 0 || counts["a"] == nil || counts["a"].Encode() != "2" {
		t.Fatalf("bad partial: %s", out[0].Tree)
	}
	// Straggler for window 0 after its partial left: a new delta.
	p.Accept(0, aggItem("a", 2*time.Second), emit)
	p.Flush(emit)
	total := 0
	for _, it := range out {
		if i, c, ok := readPartial(it.Tree); ok && i == 0 && c["a"] != nil {
			n, err := strconv.Atoi(c["a"].Encode())
			if err != nil {
				t.Fatalf("bad count state %q", c["a"].Encode())
			}
			total += n
		}
	}
	if total != 3 {
		t.Errorf("window 0 'a' deltas sum to %d, want 3", total)
	}
}

// TestMergeAggIgnoresNonPartials: wiring bugs surface as a counter, not
// corrupted counts.
func TestMergeAggIgnoresNonPartials(t *testing.T) {
	m := &MergeAgg{Final: true}
	out := driveInline(m, []stream.Item{aggItem("x", time.Second)})
	if len(out) != 0 || m.Dropped() != 1 {
		t.Errorf("got %d outputs, dropped=%d; want 0 outputs, 1 dropped", len(out), m.Dropped())
	}
}

// TestAggSnapshotRoundTrip: mid-stream snapshots of both halves restore
// into fresh instances that finish identically.
func TestAggSnapshotRoundTrip(t *testing.T) {
	w := 10 * time.Second
	items := make([]stream.Item, 40)
	for i := range items {
		items[i] = aggItem(fmt.Sprintf("key-%d", i%3), time.Duration(i)*time.Second)
	}

	p := &PartialAgg{Key: keyAttr, Window: w}
	var head []stream.Item
	emitHead := func(it stream.Item) { head = append(head, it) }
	for _, it := range items[:25] {
		p.Accept(0, it, emitHead)
	}
	restored := &PartialAgg{Key: keyAttr, Window: w}
	if err := restored.Restore(p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if restored.PartialsEmitted() != p.PartialsEmitted() {
		t.Errorf("emitted counter = %d, want %d", restored.PartialsEmitted(), p.PartialsEmitted())
	}
	var tailA, tailB []stream.Item
	for _, it := range items[25:] {
		p.Accept(0, it, func(x stream.Item) { tailA = append(tailA, x) })
		restored.Accept(0, it, func(x stream.Item) { tailB = append(tailB, x) })
	}
	p.Flush(func(x stream.Item) { tailA = append(tailA, x) })
	restored.Flush(func(x stream.Item) { tailB = append(tailB, x) })
	if fmt.Sprint(renderAll(tailA)) != fmt.Sprint(renderAll(tailB)) {
		t.Errorf("restored PartialAgg diverged:\n got %v\nwant %v", renderAll(tailB), renderAll(tailA))
	}

	m := &MergeAgg{Final: true}
	var sink []stream.Item
	for _, it := range append(head, tailA...) {
		m.Accept(0, it, func(x stream.Item) { sink = append(sink, x) })
	}
	m2 := &MergeAgg{Final: true}
	if err := m2.Restore(m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var outA, outB []stream.Item
	m.Flush(func(x stream.Item) { outA = append(outA, x) })
	m2.Flush(func(x stream.Item) { outB = append(outB, x) })
	if fmt.Sprint(renderAll(outA)) != fmt.Sprint(renderAll(outB)) {
		t.Errorf("restored MergeAgg diverged:\n got %v\nwant %v", renderAll(outB), renderAll(outA))
	}

	if err := (&PartialAgg{}).Restore(xmltree.Elem("nope")); err == nil {
		t.Error("PartialAgg.Restore accepted a foreign snapshot")
	}
	if err := (&MergeAgg{}).Restore(xmltree.Elem("nope")); err == nil {
		t.Error("MergeAgg.Restore accepted a foreign snapshot")
	}
}

// oldPartialAccept is PartialAgg.Accept as it stood before the
// watermark check stopped allocating: sort every open window on every
// item, then test each against the watermark. Kept as the reference the
// table below holds the operator to.
func oldPartialAccept(p *PartialAgg, it stream.Item, emit Emit) {
	if p.wins == nil {
		p.wins = make(windowStates)
	}
	var idx int64
	if p.Window > 0 {
		idx = int64(it.Time / p.Window)
	}
	if !absorb(p.wins, &p.pool, aggOf(p.Agg), idx, p.Key(it.Tree), "") {
		p.dropped++
		return
	}
	if it.Time > p.maxSeen {
		p.maxSeen = it.Time
	}
	if p.Window > 0 {
		for _, w := range p.wins.sortedWindows() {
			if time.Duration(w+2)*p.Window <= p.maxSeen {
				p.emitWindow(w, emit)
			}
		}
	}
}

// TestPartialAggWatermarkMatchesOldLoop: the allocation-free watermark
// check emits the same partials, in the same window order, at the same
// items, as the sort-everything loop did.
func TestPartialAggWatermarkMatchesOldLoop(t *testing.T) {
	const w = time.Minute
	at := func(min float64) time.Duration { return time.Duration(min * float64(w)) }
	cases := []struct {
		name   string
		window time.Duration
		times  []float64 // event times in windows, arrival order
	}{
		{"in order", w, []float64{0.1, 0.5, 1.2, 1.9, 2.0, 2.5, 3.1, 4.0, 5.5}},
		{"stragglers", w, []float64{0.1, 2.1, 0.7, 1.5, 3.2, 0.2, 2.9, 5.0, 1.1, 4.4}},
		{"three windows close on one item", w, []float64{2.5, 0.3, 1.4, 0.9, 4.6, 4.7}},
		{"reopened window closes again", w, []float64{0.5, 2.0, 0.6, 2.1, 0.7, 3.0}},
		{"no window", 0, []float64{0.1, 7.0, 3.0, 12.5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			items := make([]stream.Item, len(c.times))
			for i, m := range c.times {
				items[i] = aggItem("k"+strconv.Itoa(i%3), at(m))
			}
			type emission struct {
				after int // index of the item whose Accept emitted it; len(items) for Flush
				tree  string
				time  time.Duration
			}
			run := func(accept func(*PartialAgg, stream.Item, Emit)) []emission {
				p := &PartialAgg{Key: keyAttr, Window: c.window}
				var out []emission
				i := 0
				emit := func(it stream.Item) { out = append(out, emission{i, it.Tree.String(), it.Time}) }
				for ; i < len(items); i++ {
					accept(p, items[i], emit)
				}
				p.Flush(emit)
				return out
			}
			want := run(oldPartialAccept)
			got := run(func(p *PartialAgg, it stream.Item, emit Emit) { p.Accept(0, it, emit) })
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("emissions diverge:\n got %v\nwant %v", got, want)
			}
			if c.window > 0 && len(want) < 3 {
				t.Fatalf("case emits only %d partials: it does not exercise the watermark", len(want))
			}
		})
	}
}

// TestPartialAggSteadyStateAllocs: an item that closes no window costs
// the leaf no allocation.
func TestPartialAggSteadyStateAllocs(t *testing.T) {
	p := &PartialAgg{Key: keyAttr, Window: time.Minute}
	it := aggItem("k", 30*time.Second)
	sink := func(stream.Item) {}
	p.Accept(0, it, sink)
	if got := testing.AllocsPerRun(100, func() { p.Accept(0, it, sink) }); got != 0 {
		t.Errorf("Accept allocates %.0f per item with no window to close", got)
	}
}

// TestAggTreeIngestAllocs pins what an event costs a tree on average,
// the partials of the windows it closes included: a PartialAgg leaf over
// 8 keys, a watermark that closes a window every 64 events, feeding one
// Final MergeAgg — or four tenants' roots at once. The leaf recycles its
// closed windows' states; each root opens a window per partial and, not
// flushed, keeps it, so tenants cost more.
func TestAggTreeIngestAllocs(t *testing.T) {
	for tenants, want := range map[int]float64{1: 0, 4: 1} {
		roots := make([]*MergeAgg, tenants)
		for i := range roots {
			roots[i] = &MergeAgg{Final: true}
		}
		sink := func(stream.Item) {}
		forward := func(it stream.Item) {
			for _, r := range roots {
				r.Accept(0, it, sink)
			}
		}
		leaf := &PartialAgg{Key: keyAttr, Window: time.Minute}
		items := make([]stream.Item, 64)
		for i := range items {
			items[i] = aggItem(fmt.Sprintf("key-%d", i%8), time.Duration(i)*time.Second)
		}
		i := 0
		ingest := func() {
			it := items[i%len(items)]
			it.Time += time.Duration(i/len(items)) * 64 * time.Second // advancing watermark
			leaf.Accept(0, it, forward)
			i++
		}
		if got := testing.AllocsPerRun(64*50, ingest); got != want {
			t.Errorf("%d tenants: %v allocs per event, want %v", tenants, got, want)
		}
	}
}

// sketchPartial is a leaf's <partial> of one window and the given
// number of keys, each of which absorbed v0..v39 (past freq's cap).
func sketchPartial(t *testing.T, agg monoid.Monoid, keys int) stream.Item {
	t.Helper()
	leaf := &PartialAgg{Key: keyAttr, Value: func(n *xmltree.Node) string { return n.AttrOr("v", "") }, Window: time.Minute, Agg: agg}
	var out []stream.Item
	for i := 0; i < 40*keys; i++ {
		it := aggItem(fmt.Sprintf("key-%d", i%keys), time.Second)
		it.Tree.SetAttr("v", fmt.Sprintf("v%d", i/keys))
		leaf.Accept(0, it, func(it stream.Item) { out = append(out, it) })
	}
	leaf.Flush(func(it stream.Item) { out = append(out, it) })
	if len(out) != 1 {
		t.Fatalf("%s leaf emitted %d partials, want 1", agg.Name(), len(out))
	}
	return out[0]
}

// allocsAndBytes is testing.AllocsPerRun with the bytes a run allocates.
func allocsAndBytes(runs int, f func()) (allocs float64, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, f)
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / uint64(runs+1)
}

// TestMergeAggFoldAllocs: a freq or distinct interior folding a partial
// into an open window loads each key into a recycled scratch state, so
// what it allocates is the partial's key list and map, never a 16 KB or
// 4 KB state.
func TestMergeAggFoldAllocs(t *testing.T) {
	for _, fn := range []string{"freq", "distinct"} {
		agg, _ := monoid.Lookup(fn)
		part := sketchPartial(t, agg, 4)
		m := &MergeAgg{Agg: agg}
		sink := func(stream.Item) {}
		m.Accept(0, part, sink) // opens the window
		m.Accept(0, part, sink) // fills the pool
		allocs, bytes := allocsAndBytes(100, func() { m.Accept(0, part, sink) })
		if allocs != 6 || bytes >= 4096 {
			t.Errorf("%s: folding a partial into an open window allocates %v times, %d bytes; want 6 and no state", fn, allocs, bytes)
		}
		if m.Dropped() != 0 {
			t.Errorf("%s: %d partials dropped", fn, m.Dropped())
		}
	}
}

// TestPartialAggWindowTurnoverAllocs: a freq or distinct leaf whose item
// closes one window and opens the next takes the new window's state from
// the closed one's, so what it allocates is the window's map and the
// emitted <partial>, never a 16 KB or 4 KB state.
func TestPartialAggWindowTurnoverAllocs(t *testing.T) {
	for _, fn := range []string{"freq", "distinct"} {
		agg, _ := monoid.Lookup(fn)
		p := &PartialAgg{Key: keyAttr, Value: keyAttr, Window: time.Minute, Agg: agg}
		sink := func(stream.Item) {}
		k := int64(0)
		turnover := func() {
			// Window k opens; window k-2 falls behind the watermark.
			p.Accept(0, aggItem("a", time.Duration(k)*time.Minute), sink)
			k++
		}
		turnover()
		turnover()
		turnover()
		allocs, bytes := allocsAndBytes(100, turnover)
		if allocs != 16 || bytes >= 4096 {
			t.Errorf("%s: a window turnover allocates %v times, %d bytes; want 16 and no state", fn, allocs, bytes)
		}
	}
}
