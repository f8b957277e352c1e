package operators

import (
	"fmt"
	"time"

	"p2pm/internal/monoid"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// Select is the σ operator: it forwards items whose tree satisfies the
// predicate. The predicate is compiled by the algebra layer (typically
// from a filter.Subscription plus derived-value conditions).
type Select struct {
	Pred func(*xmltree.Node) bool
}

// Name implements Proc.
func (s *Select) Name() string { return "Select" }

// Accept implements Proc.
func (s *Select) Accept(_ int, it stream.Item, emit Emit) {
	if s.Pred == nil || s.Pred(it.Tree) {
		emit(it)
	}
}

// Flush implements Proc.
func (s *Select) Flush(Emit) {}

// Restructure is the Π operator: it rewrites each input tree through a
// template-application function (the RETURN clause of a subscription).
// A nil result drops the item.
type Restructure struct {
	Apply func(*xmltree.Node) (*xmltree.Node, error)
	errs  int
}

// Name implements Proc.
func (r *Restructure) Name() string { return "Restructure" }

// Accept implements Proc.
func (r *Restructure) Accept(_ int, it stream.Item, emit Emit) {
	tree, err := r.Apply(it.Tree)
	if err != nil || tree == nil {
		if err != nil {
			r.errs++
		}
		return
	}
	out := it
	out.Tree = tree
	emit(out)
}

// Flush implements Proc.
func (r *Restructure) Flush(Emit) {}

// Errors returns the number of template applications that failed.
func (r *Restructure) Errors() int { return r.errs }

// Union is the ∪ operator: it merges all inputs into one output stream in
// arrival order.
type Union struct{}

// Name implements Proc.
func (u *Union) Name() string { return "Union" }

// Accept implements Proc.
func (u *Union) Accept(_ int, it stream.Item, emit Emit) { emit(it) }

// Flush implements Proc.
func (u *Union) Flush(Emit) {}

// Distinct is the Duplicate-removal operator: it drops items whose
// duplicate key was already seen. The default key is the canonical form of
// the tree. A non-zero Window expires memory of items older than the
// window relative to the newest item's virtual timestamp (the garbage
// collection mechanism sketched in the paper's conclusion).
type Distinct struct {
	Key    func(*xmltree.Node) string
	Window time.Duration
	seen   map[string]time.Duration
	order  []distinctEntry
}

type distinctEntry struct {
	key string
	t   time.Duration
}

// Name implements Proc.
func (d *Distinct) Name() string { return "Distinct" }

// Accept implements Proc.
func (d *Distinct) Accept(_ int, it stream.Item, emit Emit) {
	if d.seen == nil {
		d.seen = make(map[string]time.Duration)
	}
	key := it.Tree.Canonical()
	if d.Key != nil {
		key = d.Key(it.Tree)
	}
	if d.Window > 0 {
		cutoff := it.Time - d.Window
		for len(d.order) > 0 && d.order[0].t < cutoff {
			e := d.order[0]
			d.order = d.order[1:]
			if ts, ok := d.seen[e.key]; ok && ts == e.t {
				delete(d.seen, e.key)
			}
		}
	}
	if _, dup := d.seen[key]; dup {
		// Refresh recency so a steady duplicate stream keeps suppressing.
		d.seen[key] = it.Time
		d.order = append(d.order, distinctEntry{key, it.Time})
		return
	}
	d.seen[key] = it.Time
	d.order = append(d.order, distinctEntry{key, it.Time})
	emit(it)
}

// Flush implements Proc.
func (d *Distinct) Flush(Emit) {}

// SeenSize returns the number of keys currently held (memory measure for
// the GC experiments).
func (d *Distinct) SeenSize() int { return len(d.seen) }

// Group is a windowed group-by-count aggregator used for statistics
// gathering (the Edos motivation: query rates, per-peer usage). Items are
// assigned to *absolute* tumbling windows by their own virtual timestamp
// (window k covers [k·W, (k+1)·W)), so racing upstream branches — a union
// of alerters whose items interleave out of order — still land in the
// right window. One summary tree per (window, key) is emitted:
//
//	<group key="..." count="..." window="..."/>
//
// By default windows are emitted at Flush, which is immune to upstream
// goroutine races (virtual timestamps and arrival order are decoupled in
// the simulation). With EagerEmit, a window is emitted as soon as
// observed time passes its end by one full window of slack (a simple
// watermark) — suitable when the input is timestamp-ordered; stragglers
// then surface as late records counted by Late. A zero Window aggregates
// everything into a single group emitted on Flush.
type Group struct {
	Key func(*xmltree.Node) string
	// Value extracts the aggregated value attribute (nil for count).
	Value     func(*xmltree.Node) string
	Window    time.Duration
	EagerEmit bool
	// Agg is the aggregate function (internal/monoid); nil means count.
	// Non-count aggregates emit their own result attribute (sum, avg,
	// distinct, top, ...) in place of count.
	Agg monoid.Monoid

	wins    windowStates
	pool    statePool
	emitted map[int64]bool
	maxSeen time.Duration
	late    uint64
	dropped uint64
}

// Name implements Proc.
func (g *Group) Name() string { return "Group" }

// Accept implements Proc.
func (g *Group) Accept(_ int, it stream.Item, emit Emit) {
	if g.wins == nil {
		g.wins = make(windowStates)
		g.emitted = make(map[int64]bool)
	}
	var idx int64
	if g.Window > 0 {
		idx = int64(it.Time / g.Window)
	}
	key := "*"
	if g.Key != nil {
		key = g.Key(it.Tree)
	}
	var val string
	if g.Value != nil {
		val = g.Value(it.Tree)
	}
	if !absorb(g.wins, &g.pool, aggOf(g.Agg), idx, key, val) {
		g.dropped++
		return
	}
	if g.emitted[idx] {
		// A straggler arrived after its window was watermark-emitted; it
		// accumulates again and surfaces as a late record at Flush.
		g.late++
		delete(g.emitted, idx)
	}
	if it.Time > g.maxSeen {
		g.maxSeen = it.Time
	}
	if g.EagerEmit && g.Window > 0 {
		// Watermark: emit windows whose end lies a full window behind the
		// newest timestamp seen.
		for _, w := range g.wins.closable(g.Window, g.maxSeen) {
			g.pool.release(g.emitWindow(w, emit))
		}
	}
}

// Flush implements Proc. Like PartialAgg's, it recycles no state.
func (g *Group) Flush(emit Emit) {
	for _, w := range g.sortedWindows() {
		g.emitWindow(w, emit)
	}
	g.pool = statePool{}
}

// Late reports stragglers that arrived after their window was emitted.
func (g *Group) Late() uint64 { return g.late }

// Dropped reports items whose value the aggregate function rejected
// (e.g. a non-numeric input to sum).
func (g *Group) Dropped() uint64 { return g.dropped }

func (g *Group) sortedWindows() []int64 { return g.wins.sortedWindows() }

// emitWindow emits window idx's records and removes the window,
// returning its states for the caller to recycle or drop.
func (g *Group) emitWindow(idx int64, emit Emit) map[string]monoid.State {
	states := g.wins[idx]
	if len(states) == 0 {
		return nil
	}
	for _, k := range sortedKeys(states) {
		n := xmltree.Elem("group")
		n.SetAttr("key", k)
		states[k].Final(func(a, v string) { n.SetAttr(a, v) })
		n.SetAttr("window", fmt.Sprintf("%d", idx))
		emit(stream.Item{Tree: n, Time: g.maxSeen})
	}
	delete(g.wins, idx)
	g.emitted[idx] = true
	return states
}
