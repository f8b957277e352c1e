package operators

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"p2pm/internal/xmltree"
)

// Snapshotter is implemented by stateful processors whose accumulated
// state must survive a host crash: the checkpoint layer calls Snapshot
// inside Handle.Sync (serialized with Accept, so the cut is consistent),
// ships the XML through the stream-definition database's replicated DHT
// storage, and calls Restore on the re-deployed instance before it
// processes its first replayed item. Stateless processors simply don't
// implement it — a cold restart plus input replay reconstructs them.
type Snapshotter interface {
	Snapshot() *xmltree.Node
	Restore(*xmltree.Node) error
}

func durAttr(n *xmltree.Node, name string, d time.Duration) {
	n.SetAttr(name, strconv.FormatInt(int64(d), 10))
}

func attrDur(n *xmltree.Node, name string) (time.Duration, error) {
	v := n.AttrOr(name, "0")
	i, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("operators: bad %s in snapshot: %w", name, err)
	}
	return time.Duration(i), nil
}

// Snapshot implements Snapshotter: the duplicate-removal memory in
// arrival order.
func (d *Distinct) Snapshot() *xmltree.Node {
	n := xmltree.Elem("distinct")
	for _, e := range d.order {
		en := xmltree.Elem("e")
		en.SetAttr("k", e.key)
		durAttr(en, "t", e.t)
		n.Append(en)
	}
	return n
}

// Restore implements Snapshotter.
func (d *Distinct) Restore(n *xmltree.Node) error {
	if n == nil || n.Label != "distinct" {
		return fmt.Errorf("operators: not a Distinct snapshot")
	}
	d.seen = make(map[string]time.Duration)
	d.order = nil
	for _, en := range n.ChildrenByLabel("e") {
		key := en.AttrOr("k", "")
		t, err := attrDur(en, "t")
		if err != nil {
			return err
		}
		// Later entries overwrite: seen holds each key's newest timestamp,
		// exactly as repeated Accepts would have left it.
		d.seen[key] = t
		d.order = append(d.order, distinctEntry{key: key, t: t})
	}
	return nil
}

// Snapshot implements Snapshotter: both join histories (live entries
// only) plus the per-input watermarks.
func (j *Join) Snapshot() *xmltree.Node {
	j.init()
	n := xmltree.Elem("join")
	durAttr(n, "l0", j.lastSeen[0])
	durAttr(n, "l1", j.lastSeen[1])
	n.SetAttr("s0", strconv.FormatBool(j.seenInput[0]))
	n.SetAttr("s1", strconv.FormatBool(j.seenInput[1]))
	n.Append(snapshotHistory("left", j.left), snapshotHistory("right", j.right))
	return n
}

func snapshotHistory(label string, h *history) *xmltree.Node {
	n := xmltree.Elem(label)
	for _, e := range h.entries {
		if e.dead {
			continue
		}
		en := xmltree.Elem("h", e.tree.Clone())
		en.SetAttr("k", e.key)
		durAttr(en, "t", e.t)
		n.Append(en)
	}
	return n
}

// Restore implements Snapshotter.
func (j *Join) Restore(n *xmltree.Node) error {
	if n == nil || n.Label != "join" {
		return fmt.Errorf("operators: not a Join snapshot")
	}
	j.init()
	var err error
	if j.lastSeen[0], err = attrDur(n, "l0"); err != nil {
		return err
	}
	if j.lastSeen[1], err = attrDur(n, "l1"); err != nil {
		return err
	}
	j.seenInput[0] = n.AttrOr("s0", "") == "true"
	j.seenInput[1] = n.AttrOr("s1", "") == "true"
	for i, label := range []string{"left", "right"} {
		side := n.Child(label)
		if side == nil {
			return fmt.Errorf("operators: Join snapshot missing %s history", label)
		}
		h := newHistory()
		for _, en := range side.ChildrenByLabel("h") {
			t, err := attrDur(en, "t")
			if err != nil {
				return err
			}
			var tree *xmltree.Node
			for _, c := range en.Children {
				if !c.IsText() {
					tree = c
					break
				}
			}
			if tree == nil {
				return fmt.Errorf("operators: Join snapshot entry without a tree")
			}
			h.add(en.AttrOr("k", ""), tree, t)
		}
		if i == 0 {
			j.left = h
		} else {
			j.right = h
		}
	}
	return nil
}

// Snapshot implements Snapshotter: every open window's counts plus the
// watermark bookkeeping.
func (g *Group) Snapshot() *xmltree.Node {
	n := xmltree.Elem("groupstate")
	durAttr(n, "maxSeen", g.maxSeen)
	n.SetAttr("late", strconv.FormatUint(g.late, 10))
	n.SetAttr("agg", aggOf(g.Agg).Name())
	n.SetAttr("dropped", strconv.FormatUint(g.dropped, 10))
	appendWindows(n, g.wins)
	emitted := make([]int64, 0, len(g.emitted))
	for w := range g.emitted {
		emitted = append(emitted, w)
	}
	sort.Slice(emitted, func(i, j int) bool { return emitted[i] < emitted[j] })
	for _, w := range emitted {
		en := xmltree.Elem("emitted")
		en.SetAttr("idx", strconv.FormatInt(w, 10))
		n.Append(en)
	}
	return n
}

// Restore implements Snapshotter.
func (g *Group) Restore(n *xmltree.Node) error {
	if n == nil || n.Label != "groupstate" {
		return fmt.Errorf("operators: not a Group snapshot")
	}
	agg := aggOf(g.Agg)
	if got := n.AttrOr("agg", "count"); got != agg.Name() {
		return fmt.Errorf("operators: Group snapshot is %s, operator is %s", got, agg.Name())
	}
	var err error
	if g.maxSeen, err = attrDur(n, "maxSeen"); err != nil {
		return err
	}
	if g.late, err = strconv.ParseUint(n.AttrOr("late", "0"), 10, 64); err != nil {
		return fmt.Errorf("operators: bad late count in snapshot: %w", err)
	}
	if g.dropped, err = strconv.ParseUint(n.AttrOr("dropped", "0"), 10, 64); err != nil {
		return fmt.Errorf("operators: bad dropped count in snapshot: %w", err)
	}
	if g.wins, err = parseWindows(agg, n, &g.pool); err != nil {
		return err
	}
	g.emitted = make(map[int64]bool)
	for _, en := range n.ChildrenByLabel("emitted") {
		idx, err := strconv.ParseInt(en.AttrOr("idx", "0"), 10, 64)
		if err != nil {
			return fmt.Errorf("operators: bad emitted index in snapshot: %w", err)
		}
		g.emitted[idx] = true
	}
	return nil
}
