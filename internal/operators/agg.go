// In-network aggregation: the windowed Group operator decomposed into a
// fan-in tree (docs/AGGREGATION.md). PartialAgg is the leaf half — local
// pre-aggregation next to the event source, emitting per-window partial
// state instead of raw events — and MergeAgg is the interior half,
// combining partial states level by level until the root (Final) emits
// exactly the <group> records the flat operator would have. Window
// states are mergeable monoids (internal/monoid): commutative deltas
// that may arrive in any order, split across any number of emissions,
// and be re-merged after a replayed migration without changing the
// final windows. The historical count aggregate is the nil/default
// monoid; sum/min/max/avg/set are exact, distinct (HyperLogLog) and
// freq (Count-Min) are bounded-error sketches with constant-size state.
package operators

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"p2pm/internal/monoid"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// aggOf resolves the operator's aggregate function, defaulting to count
// so zero-valued operators keep the PR 5 behaviour.
func aggOf(m monoid.Monoid) monoid.Monoid {
	if m != nil {
		return m
	}
	c, _ := monoid.Lookup("count")
	return c
}

// windowStates is the shared per-window aggregation state: window index
// → group key → monoid state.
type windowStates map[int64]map[string]monoid.State

// put merges st into the (idx, key) slot, installing it directly when
// the slot is empty. A state merged into the slot goes back to pool.
func (w windowStates) put(idx int64, key string, st monoid.State, pool *statePool) error {
	m := w[idx]
	if m == nil {
		m = make(map[string]monoid.State)
		w[idx] = m
	}
	if cur := m[key]; cur != nil {
		err := cur.Merge(st)
		pool.put(st)
		return err
	}
	m[key] = st
	return nil
}

// statePool is an operator's free list of the monoid states its closed
// windows and its incoming partials released. A new window's state and
// each incoming partial's scratch state are taken from it, so a steady
// stream of windows and partials allocates no state (docs/AGGREGATION.md
// "Where a window's state comes from"). It holds only Zero states, never
// more than the widest window the operator has closed or the most keys
// in one partial (limit), and Flush drops it.
type statePool struct {
	free  []monoid.State
	limit int
}

// get returns a Zero state: a recycled one, or a fresh agg.Zero().
func (p *statePool) get(agg monoid.Monoid) monoid.State {
	n := len(p.free)
	if n == 0 {
		return agg.Zero()
	}
	st := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return st
}

// put resets st and keeps it, unless the pool is full. The caller holds
// no other reference to st.
func (p *statePool) put(st monoid.State) {
	if len(p.free) < p.limit {
		st.Reset()
		p.free = append(p.free, st)
	}
}

// release recycles the states of a closed window or a rejected partial.
func (p *statePool) release(states map[string]monoid.State) {
	p.limit = max(p.limit, len(states))
	for _, st := range states {
		p.put(st)
	}
}

func (w windowStates) sortedWindows() []int64 {
	out := make([]int64, 0, len(w))
	for idx := range w {
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// closable returns, in window order, the windows the watermark has
// passed: those whose end lies a full window behind maxSeen. It runs on
// every item and almost always finds none, so it allocates (and sorts)
// only when a window can close.
func (w windowStates) closable(window, maxSeen time.Duration) []int64 {
	var out []int64
	for idx := range w {
		if time.Duration(idx+2)*window <= maxSeen {
			out = append(out, idx)
		}
	}
	slices.Sort(out)
	return out
}

func sortedKeys(states map[string]monoid.State) []string {
	keys := make([]string, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// partialTree renders one window's states as a <partial> delta tree:
//
//	<partial window="W" max="T" agg="FN"><k key="K" n="STATE"/>...</partial>
//
// max carries the emitter's high-water timestamp so merge watermarks
// (and the final records' virtual times) compose to the same value the
// flat operator would have observed; n carries the monoid's
// deterministic encoding (for count, the same bare decimal as ever).
func partialTree(agg monoid.Monoid, idx int64, states map[string]monoid.State, maxSeen time.Duration) *xmltree.Node {
	n := xmltree.Elem("partial")
	n.SetAttr("window", strconv.FormatInt(idx, 10))
	n.SetAttr("max", strconv.FormatInt(int64(maxSeen), 10))
	n.SetAttr("agg", agg.Name())
	for _, k := range sortedKeys(states) {
		kn := xmltree.Elem("k")
		kn.SetAttr("key", k)
		kn.SetAttr("n", states[k].Encode())
		n.Append(kn)
	}
	return n
}

// parsePartial reads a <partial> back: window index, high-water mark,
// and each key's state, loaded into a scratch state from pool.
// Non-partial trees, partials of a different aggregate function, and
// corrupt states (negative counts, malformed sketches — e.g. a replayed
// or tampered partial) report ok=false. Every key is loaded before any
// window is touched, so the merge input is rejected whole, its scratch
// states back in pool, and surfaces via the dropped counter rather than
// corrupting merged windows.
func parsePartial(agg monoid.Monoid, t *xmltree.Node, pool *statePool) (idx int64, hw time.Duration, states map[string]monoid.State, ok bool) {
	if t == nil || t.Label != "partial" {
		return 0, 0, nil, false
	}
	if t.AttrOr("agg", "count") != agg.Name() {
		return 0, 0, nil, false
	}
	idx, err := strconv.ParseInt(t.AttrOr("window", "0"), 10, 64)
	if err != nil {
		return 0, 0, nil, false
	}
	m, err := strconv.ParseInt(t.AttrOr("max", "0"), 10, 64)
	if err != nil {
		return 0, 0, nil, false
	}
	kids := t.ChildrenByLabel("k")
	pool.limit = max(pool.limit, len(kids))
	states = make(map[string]monoid.State)
	for _, kn := range kids {
		st := pool.get(agg)
		if err := st.Load(kn.AttrOr("n", "")); err != nil {
			pool.put(st)
			pool.release(states)
			return 0, 0, nil, false
		}
		key := kn.AttrOr("key", "")
		if cur := states[key]; cur != nil {
			err := cur.Merge(st)
			pool.put(st)
			if err != nil {
				pool.release(states)
				return 0, 0, nil, false
			}
		} else {
			states[key] = st
		}
	}
	return idx, time.Duration(m), states, true
}

// PartialAgg is the aggregation tree's leaf: it accumulates the same
// (window, key) states as Group over its single local input, but emits
// <partial> delta states instead of final records — a window's partial
// is emitted when the watermark passes it (observed time one full window
// beyond its end, mirroring Group's EagerEmit rule) and whatever remains
// is emitted at Flush. Stragglers arriving after a window's partial was
// emitted simply accumulate a new delta: downstream merges fold states
// together, so splitting a window across emissions never changes the
// final totals.
type PartialAgg struct {
	Key func(*xmltree.Node) string
	// Value extracts the aggregated value attribute (nil for count).
	Value  func(*xmltree.Node) string
	Window time.Duration
	// Agg is the aggregate function; nil means count.
	Agg monoid.Monoid

	wins    windowStates
	pool    statePool
	maxSeen time.Duration
	emitted uint64 // partial states emitted (diagnostics)
	dropped uint64 // items whose value the aggregate rejected
}

// Name implements Proc.
func (p *PartialAgg) Name() string { return "PartialAgg" }

// Accept implements Proc.
func (p *PartialAgg) Accept(_ int, it stream.Item, emit Emit) {
	if p.wins == nil {
		p.wins = make(windowStates)
	}
	agg := aggOf(p.Agg)
	var idx int64
	if p.Window > 0 {
		idx = int64(it.Time / p.Window)
	}
	key := "*"
	if p.Key != nil {
		key = p.Key(it.Tree)
	}
	var val string
	if p.Value != nil {
		val = p.Value(it.Tree)
	}
	if !absorb(p.wins, &p.pool, agg, idx, key, val) {
		p.dropped++
		return
	}
	if it.Time > p.maxSeen {
		p.maxSeen = it.Time
	}
	if p.Window > 0 {
		for _, w := range p.wins.closable(p.Window, p.maxSeen) {
			p.pool.release(p.emitWindow(w, emit))
		}
	}
}

// absorb folds one value into the (idx, key) state, taking it from pool
// when absent. A value the aggregate rejects leaves the window map
// untouched and reports false.
func absorb(wins windowStates, pool *statePool, agg monoid.Monoid, idx int64, key, val string) bool {
	m := wins[idx]
	st := m[key]
	fresh := st == nil
	if fresh {
		st = pool.get(agg)
	}
	if st.Absorb(val) != nil {
		if fresh {
			pool.put(st)
		}
		return false
	}
	if fresh {
		if m == nil {
			m = make(map[string]monoid.State)
			wins[idx] = m
		}
		m[key] = st
	}
	return true
}

// Flush implements Proc. It drops the closed windows' states instead of
// recycling them, so a stopped task pins none.
func (p *PartialAgg) Flush(emit Emit) {
	for _, w := range p.wins.sortedWindows() {
		p.emitWindow(w, emit)
	}
	p.pool = statePool{}
}

// PartialsEmitted reports how many partial states left this leaf.
func (p *PartialAgg) PartialsEmitted() uint64 { return p.emitted }

// Dropped reports items whose value the aggregate function rejected
// (e.g. a non-numeric input to sum).
func (p *PartialAgg) Dropped() uint64 { return p.dropped }

// emitWindow emits window idx's partial and removes the window,
// returning its states for the caller to recycle or drop.
func (p *PartialAgg) emitWindow(idx int64, emit Emit) map[string]monoid.State {
	states := p.wins[idx]
	if len(states) == 0 {
		return nil
	}
	emit(stream.Item{Tree: partialTree(aggOf(p.Agg), idx, states, p.maxSeen), Time: p.maxSeen})
	delete(p.wins, idx)
	p.emitted++
	return states
}

// Snapshot implements Snapshotter: the open windows and the watermark.
func (p *PartialAgg) Snapshot() *xmltree.Node {
	n := xmltree.Elem("paggstate")
	durAttr(n, "maxSeen", p.maxSeen)
	n.SetAttr("emitted", strconv.FormatUint(p.emitted, 10))
	n.SetAttr("agg", aggOf(p.Agg).Name())
	n.SetAttr("dropped", strconv.FormatUint(p.dropped, 10))
	appendWindows(n, p.wins)
	return n
}

// Restore implements Snapshotter.
func (p *PartialAgg) Restore(n *xmltree.Node) error {
	if n == nil || n.Label != "paggstate" {
		return fmt.Errorf("operators: not a PartialAgg snapshot")
	}
	agg := aggOf(p.Agg)
	if got := n.AttrOr("agg", "count"); got != agg.Name() {
		return fmt.Errorf("operators: PartialAgg snapshot is %s, operator is %s", got, agg.Name())
	}
	var err error
	if p.maxSeen, err = attrDur(n, "maxSeen"); err != nil {
		return err
	}
	if p.emitted, err = strconv.ParseUint(n.AttrOr("emitted", "0"), 10, 64); err != nil {
		return fmt.Errorf("operators: bad emitted count in snapshot: %w", err)
	}
	if p.dropped, err = strconv.ParseUint(n.AttrOr("dropped", "0"), 10, 64); err != nil {
		return fmt.Errorf("operators: bad dropped count in snapshot: %w", err)
	}
	p.wins, err = parseWindows(agg, n, &p.pool)
	return err
}

// MergeAgg is the aggregation tree's interior: it merges the <partial>
// window states of its children with the monoid's Merge. Interior nodes
// forward the merged partials at Flush (one state per window, so an
// interior's output volume is bounded by windows × keys regardless of
// how many events its subtree saw); the root — Final — emits the final
// records of the flat Group operator instead, in the same
// window-then-key order and carrying the same composed high-water
// timestamp, so a tree deployment's results are byte-identical to the
// flat single-aggregator baseline for exact aggregates.
type MergeAgg struct {
	// Final makes this node the tree root: it emits final records
	// instead of forwarding <partial> states.
	Final bool
	// Agg is the aggregate function; nil means count.
	Agg monoid.Monoid

	wins    windowStates
	pool    statePool
	maxSeen time.Duration
	dropped uint64 // rejected inputs (non-partials, corrupt states)
}

// Name implements Proc.
func (m *MergeAgg) Name() string { return "MergeAgg" }

// Accept implements Proc.
func (m *MergeAgg) Accept(_ int, it stream.Item, emit Emit) {
	idx, max, states, ok := parsePartial(aggOf(m.Agg), it.Tree, &m.pool)
	if !ok {
		m.dropped++
		return
	}
	if m.wins == nil {
		m.wins = make(windowStates)
	}
	for _, k := range sortedKeys(states) {
		if m.wins.put(idx, k, states[k], &m.pool) != nil {
			m.dropped++
		}
	}
	if max > m.maxSeen {
		m.maxSeen = max
	}
}

// Flush implements Proc. Like PartialAgg's, it recycles no state.
func (m *MergeAgg) Flush(emit Emit) {
	agg := aggOf(m.Agg)
	for _, w := range m.wins.sortedWindows() {
		states := m.wins[w]
		if len(states) == 0 {
			continue
		}
		if m.Final {
			for _, k := range sortedKeys(states) {
				n := xmltree.Elem("group")
				n.SetAttr("key", k)
				states[k].Final(func(a, v string) { n.SetAttr(a, v) })
				n.SetAttr("window", strconv.FormatInt(w, 10))
				emit(stream.Item{Tree: n, Time: m.maxSeen})
			}
		} else {
			emit(stream.Item{Tree: partialTree(agg, w, states, m.maxSeen), Time: m.maxSeen})
		}
		delete(m.wins, w)
	}
	m.pool = statePool{}
}

// Dropped reports inputs that were not valid partial states (zero in a
// correctly wired tree fed well-formed partials).
func (m *MergeAgg) Dropped() uint64 { return m.dropped }

// Snapshot implements Snapshotter: the merged open windows and watermark.
func (m *MergeAgg) Snapshot() *xmltree.Node {
	n := xmltree.Elem("maggstate")
	durAttr(n, "maxSeen", m.maxSeen)
	n.SetAttr("final", strconv.FormatBool(m.Final))
	n.SetAttr("agg", aggOf(m.Agg).Name())
	appendWindows(n, m.wins)
	return n
}

// Restore implements Snapshotter.
func (m *MergeAgg) Restore(n *xmltree.Node) error {
	if n == nil || n.Label != "maggstate" {
		return fmt.Errorf("operators: not a MergeAgg snapshot")
	}
	agg := aggOf(m.Agg)
	if got := n.AttrOr("agg", "count"); got != agg.Name() {
		return fmt.Errorf("operators: MergeAgg snapshot is %s, operator is %s", got, agg.Name())
	}
	var err error
	if m.maxSeen, err = attrDur(n, "maxSeen"); err != nil {
		return err
	}
	m.wins, err = parseWindows(agg, n, &m.pool)
	return err
}

// appendWindows serializes windowStates as <w idx><k key n/></w>
// children (the same shape Group's snapshot uses); n holds the monoid
// encoding, so for count the bytes match the map[string]int era.
func appendWindows(n *xmltree.Node, wins windowStates) {
	for _, w := range wins.sortedWindows() {
		wn := xmltree.Elem("w")
		wn.SetAttr("idx", strconv.FormatInt(w, 10))
		states := wins[w]
		for _, k := range sortedKeys(states) {
			kn := xmltree.Elem("k")
			kn.SetAttr("key", k)
			kn.SetAttr("n", states[k].Encode())
			wn.Append(kn)
		}
		n.Append(wn)
	}
}

func parseWindows(agg monoid.Monoid, n *xmltree.Node, pool *statePool) (windowStates, error) {
	wins := make(windowStates)
	for _, wn := range n.ChildrenByLabel("w") {
		idx, err := strconv.ParseInt(wn.AttrOr("idx", "0"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("operators: bad window index in snapshot: %w", err)
		}
		for _, kn := range wn.ChildrenByLabel("k") {
			st, err := agg.Decode(kn.AttrOr("n", ""))
			if err != nil {
				return nil, fmt.Errorf("operators: bad %s state in snapshot: %w", agg.Name(), err)
			}
			if err := wins.put(idx, kn.AttrOr("key", ""), st, pool); err != nil {
				return nil, err
			}
		}
	}
	return wins, nil
}
