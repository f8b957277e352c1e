package operators

import (
	"time"

	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// KeyFunc extracts the join key from a tree; ok=false means the tree has
// no key and cannot participate in the join.
type KeyFunc func(*xmltree.Node) (string, bool)

// AttrKey returns a KeyFunc reading a root attribute — the common case in
// monitoring subscriptions ("$c1.callId = $c2.callId").
func AttrKey(attr string) KeyFunc {
	return func(n *xmltree.Node) (string, bool) { return n.Attr(attr) }
}

// Combine builds the join output from a matched pair. The paper: "The
// result of Join includes information about the matching pair of trees."
type Combine func(left, right *xmltree.Node) *xmltree.Node

// PairCombine is the default Combine: <pair><left>…</left><right>…</right></pair>.
func PairCombine(left, right *xmltree.Node) *xmltree.Node {
	return xmltree.Elem("pair",
		xmltree.Elem("left", left.Clone()),
		xmltree.Elem("right", right.Clone()))
}

// Join is the ⋈ operator over two input streams (input 0 = left, 1 =
// right). For each arriving tree, the history of the *other* stream is
// probed for partners with an equal join key (then the optional Residual
// predicate). An index over each history accelerates the probe — set
// UseIndex to false to get the linear-scan baseline of experiment C8.
//
// Window, when non-zero, bounds each history by virtual time — the
// time-based storage bound of STREAM adopted in the paper's future-work
// GC discussion (bench C10). Eviction follows the *watermark*: the
// minimum of the two inputs' latest timestamps. Cutting by the newest
// arrival alone would be wrong in a distributed deployment, where one
// input's items cross more operator hops and lag the other — their
// in-window partners must not be collected before they arrive.
type Join struct {
	LeftKey  KeyFunc
	RightKey KeyFunc
	Residual func(left, right *xmltree.Node) bool
	Combine  Combine
	UseIndex bool
	Window   time.Duration

	left, right *history
	lastSeen    [2]time.Duration
	seenInput   [2]bool
	probes      uint64 // partner candidates examined
	evicted     uint64
}

// Name implements Proc.
func (j *Join) Name() string { return "Join" }

func (j *Join) init() {
	if j.left == nil {
		j.left = newHistory()
		j.right = newHistory()
		if j.Combine == nil {
			j.Combine = PairCombine
		}
	}
}

// Accept implements Proc.
func (j *Join) Accept(idx int, it stream.Item, emit Emit) {
	j.init()
	var mine, other *history
	var myKey, otherKey KeyFunc
	if idx == 0 {
		mine, other = j.left, j.right
		myKey, otherKey = j.LeftKey, j.RightKey
	} else {
		mine, other = j.right, j.left
		myKey, otherKey = j.RightKey, j.LeftKey
	}
	key, ok := myKey(it.Tree)
	if !ok {
		return
	}
	if it.Time > j.lastSeen[idx] {
		j.lastSeen[idx] = it.Time
	}
	j.seenInput[idx] = true
	if j.Window > 0 && j.seenInput[0] && j.seenInput[1] {
		watermark := j.lastSeen[0]
		if j.lastSeen[1] < watermark {
			watermark = j.lastSeen[1]
		}
		cutoff := watermark - j.Window
		j.evicted += uint64(mine.evictBefore(cutoff))
		j.evicted += uint64(other.evictBefore(cutoff))
	}
	// Probe the other side's history.
	if j.UseIndex {
		for _, e := range other.byKey[key] {
			if e.dead {
				continue
			}
			j.probes++
			j.tryEmit(idx, it, e, emit)
		}
	} else {
		for i := range other.entries {
			e := other.entries[i]
			if e.dead {
				continue
			}
			j.probes++
			k2, ok2 := otherKey(e.tree)
			if ok2 && k2 == key {
				j.tryEmit(idx, it, e, emit)
			}
		}
	}
	mine.add(key, it.Tree, it.Time)
}

// tryEmit stamps a pair with the later partner's time, so the output does
// not depend on which partner the scheduler delivered last.
func (j *Join) tryEmit(idx int, it stream.Item, partner *histEntry, emit Emit) {
	var l, r *xmltree.Node
	if idx == 0 {
		l, r = it.Tree, partner.tree
	} else {
		l, r = partner.tree, it.Tree
	}
	if j.Residual != nil && !j.Residual(l, r) {
		return
	}
	emit(stream.Item{Tree: j.Combine(l, r), Time: max(it.Time, partner.t)})
}

// Flush implements Proc.
func (j *Join) Flush(Emit) {}

// HistorySize returns the total live entries held across both histories.
func (j *Join) HistorySize() int {
	j.init()
	return j.left.live + j.right.live
}

// PeakHistorySize returns the maximum combined history size observed.
func (j *Join) PeakHistorySize() int {
	j.init()
	return j.left.peak + j.right.peak
}

// Probes returns the number of candidate partners examined.
func (j *Join) Probes() uint64 { return j.probes }

// Evicted returns the number of history entries garbage-collected by the
// time window.
func (j *Join) Evicted() uint64 { return j.evicted }

// history is one side's join state: an arrival-ordered list plus a hash
// index key → entries. Eviction marks entries dead and prunes the index
// lazily to keep both access paths O(live).
type history struct {
	entries []*histEntry
	byKey   map[string][]*histEntry
	live    int
	peak    int
}

type histEntry struct {
	key  string
	tree *xmltree.Node
	t    time.Duration
	dead bool
}

func newHistory() *history {
	return &history{byKey: make(map[string][]*histEntry)}
}

func (h *history) add(key string, tree *xmltree.Node, t time.Duration) {
	e := &histEntry{key: key, tree: tree, t: t}
	h.entries = append(h.entries, e)
	h.byKey[key] = append(h.byKey[key], e)
	h.live++
	if h.live > h.peak {
		h.peak = h.live
	}
}

// evictBefore marks all entries older than cutoff dead and compacts the
// arrival list; index buckets are compacted on their next touch.
func (h *history) evictBefore(cutoff time.Duration) int {
	// Entries are in arrival order but timestamps can interleave across
	// streams; within one history they are non-decreasing, so scan the
	// prefix.
	n := 0
	for n < len(h.entries) && h.entries[n].t < cutoff {
		h.entries[n].dead = true
		n++
	}
	if n == 0 {
		return 0
	}
	evicted := 0
	for _, e := range h.entries[:n] {
		if bucket, ok := h.byKey[e.key]; ok {
			liveBucket := bucket[:0]
			for _, be := range bucket {
				if !be.dead {
					liveBucket = append(liveBucket, be)
				}
			}
			if len(liveBucket) == 0 {
				delete(h.byKey, e.key)
			} else {
				h.byKey[e.key] = liveBucket
			}
		}
		evicted++
	}
	h.entries = append([]*histEntry(nil), h.entries[n:]...)
	h.live -= evicted
	return evicted
}
