package operators

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"p2pm/internal/monoid"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// TestStatePoolBound: the free list never holds more states than the
// widest window the operator has closed or the most keys in one partial,
// and Flush leaves it empty.
func TestStatePoolBound(t *testing.T) {
	freq, _ := monoid.Lookup("freq")
	p := &PartialAgg{Key: keyAttr, Value: keyAttr, Window: time.Minute, Agg: freq}
	sink := func(stream.Item) {}
	for i, keys := range []int{3, 5, 2, 4} {
		for k := 0; k < keys; k++ {
			p.Accept(0, aggItem(fmt.Sprintf("k%d", k), time.Duration(i)*time.Minute), sink)
		}
	}
	// Windows 0 (3 keys) and 1 (5 keys) have closed; 2 and 3 are open.
	if p.pool.limit != 5 || len(p.pool.free) > 5 {
		t.Errorf("leaf pool: limit %d, %d free; want limit 5 and at most 5", p.pool.limit, len(p.pool.free))
	}
	p.Flush(sink)
	if p.pool.free != nil || p.pool.limit != 0 {
		t.Errorf("leaf pool after Flush: limit %d, %d free; want empty", p.pool.limit, len(p.pool.free))
	}

	m := &MergeAgg{Agg: freq}
	part := sketchPartial(t, freq, 7)
	for i := 0; i < 3; i++ {
		m.Accept(0, part, sink)
	}
	if m.pool.limit != 7 || len(m.pool.free) != 7 {
		t.Errorf("interior pool: limit %d, %d free; want 7 and 7", m.pool.limit, len(m.pool.free))
	}
	m.Flush(sink)
	if m.pool.free != nil || m.pool.limit != 0 {
		t.Errorf("interior pool after Flush: limit %d, %d free; want empty", m.pool.limit, len(m.pool.free))
	}
}

// refFold is the window fold as the operators ran it before they
// recycled states: a new (window, key) state is a fresh Zero, an
// incoming partial's states are fresh Decodes, and nothing is reused.
// FuzzAggChainMatchesReference holds PartialAgg, MergeAgg and Group to
// it.
type refFold struct {
	agg     monoid.Monoid
	wins    map[int64]map[string]monoid.State
	maxSeen time.Duration
	dropped uint64
}

func newRefFold(agg monoid.Monoid) *refFold {
	return &refFold{agg: agg, wins: map[int64]map[string]monoid.State{}}
}

func (r *refFold) slot(idx int64) map[string]monoid.State {
	m := r.wins[idx]
	if m == nil {
		m = map[string]monoid.State{}
		r.wins[idx] = m
	}
	return m
}

func (r *refFold) absorb(it stream.Item, key, val string, window time.Duration) (idx int64, ok bool) {
	idx = int64(it.Time / window)
	st := r.wins[idx][key]
	fresh := st == nil
	if fresh {
		st = r.agg.Zero()
	}
	if st.Absorb(val) != nil {
		r.dropped++
		return idx, false
	}
	if fresh {
		r.slot(idx)[key] = st
	}
	if it.Time > r.maxSeen {
		r.maxSeen = it.Time
	}
	return idx, true
}

// merge folds a <partial> in: every key decoded first, the partial
// rejected whole on a bad state or a refused merge of duplicate keys.
func (r *refFold) merge(t *xmltree.Node) {
	if t == nil || t.Label != "partial" || t.AttrOr("agg", "count") != r.agg.Name() {
		r.dropped++
		return
	}
	idx, err1 := strconv.ParseInt(t.AttrOr("window", "0"), 10, 64)
	hw, err2 := strconv.ParseInt(t.AttrOr("max", "0"), 10, 64)
	if err1 != nil || err2 != nil {
		r.dropped++
		return
	}
	states := map[string]monoid.State{}
	for _, kn := range t.ChildrenByLabel("k") {
		st, err := r.agg.Decode(kn.AttrOr("n", ""))
		if err != nil {
			r.dropped++
			return
		}
		key := kn.AttrOr("key", "")
		if cur := states[key]; cur == nil {
			states[key] = st
		} else if cur.Merge(st) != nil {
			r.dropped++
			return
		}
	}
	m := r.slot(idx)
	for _, k := range sortedKeys(states) {
		if cur := m[k]; cur == nil {
			m[k] = states[k]
		} else if cur.Merge(states[k]) != nil {
			r.dropped++
		}
	}
	if time.Duration(hw) > r.maxSeen {
		r.maxSeen = time.Duration(hw)
	}
}

// closable lists, in order, the windows a full window behind maxSeen.
func (r *refFold) closable(window time.Duration) []int64 {
	var out []int64
	for _, idx := range r.sorted() {
		if time.Duration(idx+2)*window <= r.maxSeen {
			out = append(out, idx)
		}
	}
	return out
}

// take removes window idx, returning its states (nil when it has none).
func (r *refFold) take(idx int64) map[string]monoid.State {
	states := r.wins[idx]
	delete(r.wins, idx)
	if len(states) == 0 {
		return nil
	}
	return states
}

func (r *refFold) sorted() []int64 { return windowStates(r.wins).sortedWindows() }

// refRecords renders a window's final <group> records as Group and the
// tree root emit them.
func refRecords(idx int64, states map[string]monoid.State) []string {
	var out []string
	for _, k := range sortedKeys(states) {
		n := xmltree.Elem("group")
		n.SetAttr("key", k)
		states[k].Final(func(a, v string) { n.SetAttr(a, v) })
		n.SetAttr("window", strconv.FormatInt(idx, 10))
		out = append(out, n.String())
	}
	return out
}

// aggChain is the side under test: a leaf feeding an interior feeding a
// root, and a flat eager Group over the same items. log records every
// emission in order. Each pool's bound is the widest window its
// operator closed (widestLeaf, widestGroup) or the most keys in one
// partial it read (keysIn, keysRoot).
type aggChain struct {
	log                     strings.Builder
	leaf                    *PartialAgg
	interior, root          *MergeAgg
	group                   *Group
	widestLeaf, widestGroup int
	keysIn, keysRoot        int
}

// refChain is the reference side: refFolds in place of the operators.
type refChain struct {
	log                    strings.Builder
	leaf, interior, root   *refFold
	group                  *refFold
	groupEmitted           map[int64]bool
	groupLate, leafEmitted uint64
}

func logf(b *strings.Builder, format string, args ...any) { fmt.Fprintf(b, format+"\n", args...) }

const fuzzWindow = 10 * time.Second

var (
	fuzzKeys   = []string{"a", "b", "c", "k d"}
	fuzzValues = func() []string {
		out := []string{"", "x", "9223372036854775807", "-9223372036854775808", "a b", "100%", "-3"}
		for i := len(out); i < 48; i++ {
			out = append(out, strconv.Itoa(i))
		}
		return out
	}()
	// fuzzEncodings are states for crafted partials: each is valid for
	// some monoids and corrupt or overflowing for others.
	fuzzEncodings = []string{"", "0", "1", "-1", "x", "5/0", "3/2", "9223372036854775807",
		"9223372036854775807/1", "-9223372036854775808/1", "0.0:9223372036854775807|", "0.0:1|a",
		"0.0:1;0.0:2|", "|a,,b", "s1:2", "s1:2,", "s4096:1", "d00", "a,b", "a%zz"}
)

// FuzzAggChainMatchesReference runs a PartialAgg → MergeAgg → final
// MergeAgg chain, and an eager Group, beside refFold copies that never
// recycle a state, on a program the fuzz bytes spell: items (values the
// aggregate rejects or that overflow included, stragglers, windows the
// watermark closes), crafted partials into the interior or the root
// (corrupt states, overflowing merges, duplicate keys), Snapshot and
// Restore of any operator, and early Flushes. Every emitted <partial>
// and <group> must be byte-identical, in the same order and at the same
// time, and every Dropped, Late and PartialsEmitted equal: a state
// released while a window still holds it shows as a window that changes
// under another. After every step each free list stays within its
// bound, and after a Flush it is empty.
func FuzzAggChainMatchesReference(f *testing.F) {
	names := monoid.Names()
	for i := range names {
		r := rand.New(rand.NewSource(int64(i)))
		prog := make([]byte, 200)
		r.Read(prog)
		prog[0] = byte(i)
		f.Add(prog)
	}
	// count: a partial whose duplicate keys overflow each other, one that
	// opens an interior window at MaxInt64, one that overflows merging
	// into it, a Snapshot and Restore of the interior, and another.
	f.Add([]byte{1, 0, 0, 0, 4, 0, 0, 2, 0, 7, 0, 7, 4, 0, 0, 1, 0, 7, 4, 0, 0, 1, 0, 2, 6, 1, 4, 0, 0, 1, 0, 2})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 || len(prog) > 256 {
			return
		}
		runAggProgram(t, prog)
	})
}

func runAggProgram(t *testing.T, prog []byte) {
	names := monoid.Names()
	agg, _ := monoid.Lookup(names[int(prog[0])%len(names)])
	prog = prog[1:]
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	value := func(n *xmltree.Node) string { return n.AttrOr("v", "") }
	got := &aggChain{
		leaf:     &PartialAgg{Key: keyAttr, Value: value, Window: fuzzWindow, Agg: agg},
		interior: &MergeAgg{Agg: agg},
		root:     &MergeAgg{Final: true, Agg: agg},
		group:    &Group{Key: keyAttr, Value: value, Window: fuzzWindow, EagerEmit: true, Agg: agg},
	}
	want := &refChain{leaf: newRefFold(agg), interior: newRefFold(agg), root: newRefFold(agg),
		group: newRefFold(agg), groupEmitted: map[int64]bool{}}

	// Emissions: the leaf's partials go to the interior, the interior's
	// to the root; the root and the group log final records.
	rootOut := func(it stream.Item) { logf(&got.log, "root@%d %s", it.Time, it.Tree) }
	toMerge := func(m *MergeAgg, keys *int, it stream.Item) {
		*keys = max(*keys, len(it.Tree.ChildrenByLabel("k")))
		m.Accept(0, it, rootOut)
	}
	leafOut := func(it stream.Item) {
		logf(&got.log, "leaf@%d %s", it.Time, it.Tree)
		toMerge(got.interior, &got.keysIn, it)
	}
	interiorOut := func(it stream.Item) {
		logf(&got.log, "interior@%d %s", it.Time, it.Tree)
		toMerge(got.root, &got.keysRoot, it)
	}
	groupOut := func(it stream.Item) { logf(&got.log, "group@%d %s", it.Time, it.Tree) }

	refLeafEmit := func(idx int64, states map[string]monoid.State) {
		want.leafEmitted++
		tree := partialTree(agg, idx, states, want.leaf.maxSeen)
		logf(&want.log, "leaf@%d %s", want.leaf.maxSeen, tree)
		want.interior.merge(tree)
	}
	refGroupEmit := func(idx int64, states map[string]monoid.State) {
		for _, rec := range refRecords(idx, states) {
			logf(&want.log, "group@%d %s", want.group.maxSeen, rec)
		}
		want.groupEmitted[idx] = true
	}

	checkPools := func(what string) {
		t.Helper()
		for _, c := range []struct {
			name  string
			pool  *statePool
			bound int
		}{
			{"leaf", &got.leaf.pool, got.widestLeaf},
			{"interior", &got.interior.pool, got.keysIn},
			{"root", &got.root.pool, got.keysRoot},
			{"group", &got.group.pool, got.widestGroup},
		} {
			if len(c.pool.free) > c.pool.limit || c.pool.limit > c.bound {
				t.Fatalf("after %s the %s pool holds %d states under a limit of %d; its bound is %d",
					what, c.name, len(c.pool.free), c.pool.limit, c.bound)
			}
		}
	}
	flushed := func(what string, p *statePool) {
		t.Helper()
		if p.free != nil || p.limit != 0 {
			t.Fatalf("%s Flush left %d states in its pool", what, len(p.free))
		}
	}
	// flushes each flush one operator on both sides.
	flushes := []func(){
		func() {
			got.leaf.Flush(leafOut)
			flushed("leaf", &got.leaf.pool)
			for _, idx := range want.leaf.sorted() {
				if states := want.leaf.take(idx); states != nil {
					refLeafEmit(idx, states)
				}
			}
		},
		func() {
			got.interior.Flush(interiorOut)
			flushed("interior", &got.interior.pool)
			for _, idx := range want.interior.sorted() {
				if states := want.interior.take(idx); states != nil {
					tree := partialTree(agg, idx, states, want.interior.maxSeen)
					logf(&want.log, "interior@%d %s", want.interior.maxSeen, tree)
					want.root.merge(tree)
				}
			}
		},
		func() {
			got.root.Flush(rootOut)
			flushed("root", &got.root.pool)
			for _, idx := range want.root.sorted() {
				for _, rec := range refRecords(idx, want.root.take(idx)) {
					logf(&want.log, "root@%d %s", want.root.maxSeen, rec)
				}
			}
		},
		func() {
			got.group.Flush(groupOut)
			flushed("group", &got.group.pool)
			for _, idx := range want.group.sorted() {
				if states := want.group.take(idx); states != nil {
					refGroupEmit(idx, states)
				}
			}
		},
	}

	var clock time.Duration // items mostly advance it; some straggle behind
	step := 0
	for len(prog) > 0 {
		step++
		op := next()
		what := fmt.Sprintf("step %d (op %d)", step, op%8)
		logf(&got.log, "-- %s", what)
		logf(&want.log, "-- %s", what)
		switch op % 8 {
		case 0, 1, 2, 3: // an item
			kv, tb := next(), next()
			at := clock - time.Duration(tb%64)*time.Second
			if tb < 192 {
				clock += time.Duration(tb%4) * time.Second
				at = clock
			}
			at = max(at, 0)
			key, val := fuzzKeys[kv%len(fuzzKeys)], fuzzValues[(kv/len(fuzzKeys))%len(fuzzValues)]
			n := xmltree.Elem("e")
			n.SetAttr("k", key)
			n.SetAttr("v", val)
			it := stream.Item{Tree: n, Time: at}
			got.leaf.Accept(0, it, leafOut)
			got.group.Accept(0, it, groupOut)

			if _, ok := want.leaf.absorb(it, key, val, fuzzWindow); ok {
				for _, idx := range want.leaf.closable(fuzzWindow) {
					states := want.leaf.take(idx)
					got.widestLeaf = max(got.widestLeaf, len(states))
					if states != nil {
						refLeafEmit(idx, states)
					}
				}
			}
			if idx, ok := want.group.absorb(it, key, val, fuzzWindow); ok {
				if want.groupEmitted[idx] {
					want.groupLate++
					delete(want.groupEmitted, idx)
				}
				for _, idx := range want.group.closable(fuzzWindow) {
					states := want.group.take(idx)
					got.widestGroup = max(got.widestGroup, len(states))
					if states != nil {
						refGroupEmit(idx, states)
					}
				}
			}
		case 4, 5: // a crafted partial into the interior or the root
			n := xmltree.Elem("partial")
			n.SetAttr("window", strconv.Itoa(next()%8))
			n.SetAttr("max", strconv.Itoa(next()*int(time.Second)))
			n.SetAttr("agg", agg.Name())
			for k := next() % 6; k > 0; k-- {
				kn := xmltree.Elem("k")
				kn.SetAttr("key", fuzzKeys[next()%len(fuzzKeys)])
				kn.SetAttr("n", fuzzEncodings[next()%len(fuzzEncodings)])
				n.Append(kn)
			}
			it := stream.Item{Tree: n}
			if op%8 == 4 {
				toMerge(got.interior, &got.keysIn, it)
				want.interior.merge(n)
			} else {
				toMerge(got.root, &got.keysRoot, it)
				want.root.merge(n)
			}
		case 6: // Snapshot and Restore, through the snapshot's text
			var s Snapshotter
			switch next() % 4 {
			case 0:
				s = got.leaf
			case 1:
				s = got.interior
			case 2:
				s = got.root
			default:
				s = got.group
			}
			snap, err := xmltree.Parse(s.Snapshot().String())
			if err != nil {
				t.Fatalf("%s: snapshot does not parse: %v", what, err)
			}
			if err := s.Restore(snap); err != nil {
				t.Fatalf("%s: Restore of its own snapshot: %v", what, err)
			}
		case 7: // an early Flush
			flushes[next()%len(flushes)]()
		}
		checkPools(what)
	}

	// End of stream: each operator flushes in turn, as a stopping task's do.
	logf(&got.log, "-- end")
	logf(&want.log, "-- end")
	for _, flush := range flushes {
		flush()
	}

	if g, w := got.log.String(), want.log.String(); g != w {
		gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: emissions diverge at line %d:\n got %s\nwant %s", agg.Name(), i, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d emission lines, the reference %d", agg.Name(), len(gl), len(wl))
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"leaf Dropped", got.leaf.Dropped(), want.leaf.dropped},
		{"leaf PartialsEmitted", got.leaf.PartialsEmitted(), want.leafEmitted},
		{"interior Dropped", got.interior.Dropped(), want.interior.dropped},
		{"root Dropped", got.root.Dropped(), want.root.dropped},
		{"group Dropped", got.group.Dropped(), want.group.dropped},
		{"group Late", got.group.Late(), want.groupLate},
	} {
		if c.got != c.want {
			t.Errorf("%s: %s = %d, the reference %d", agg.Name(), c.name, c.got, c.want)
		}
	}
}
