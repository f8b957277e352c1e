package filter

import (
	"fmt"
	"sort"
	"strings"
)

// AES is the Atomic Event Set hash-tree of [15], as described in
// Section 4 and Figure 6 of the paper. Each subscription's simple
// conditions form an ordered sequence; the tree stores one hash table per
// distinct prefix. A cell for condition c in table H_{i1..ik} exists when
// some subscription's sequence starts with C_{i1},..,C_{ik},c; the cell is
// *marked* with every subscription whose sequence ends exactly there.
//
// Matching feeds the ordered list of satisfied conditions through the
// tree: a frontier of active tables starts at the root, and each satisfied
// condition both collects markings and activates child tables, so every
// subscription whose (ordered) condition sequence is a subsequence of the
// satisfied list is reported — in time that depends on the satisfied
// conditions, not on the total number of subscriptions.
type AES struct {
	root *aesNode
	size int
}

type aesNode struct {
	entries map[int]*aesEntry
}

type aesEntry struct {
	child    *aesNode
	markings []int
}

// NewAES returns an empty hash-tree.
func NewAES() *AES {
	return &AES{root: &aesNode{entries: make(map[int]*aesEntry)}}
}

// Insert adds a subscription (identified by an integer handle) with the
// given ascending condition-ID sequence. Sequences must be non-empty:
// subscriptions without simple conditions bypass the AES (the paper
// likewise sets them aside).
func (a *AES) Insert(seq []int, subHandle int) error {
	if len(seq) == 0 {
		return fmt.Errorf("filter: AES sequences must be non-empty")
	}
	for i := 1; i < len(seq); i++ {
		if seq[i] <= seq[i-1] {
			return fmt.Errorf("filter: AES sequence not strictly ascending: %v", seq)
		}
	}
	node := a.root
	for i, c := range seq {
		e := node.entries[c]
		if e == nil {
			e = &aesEntry{}
			node.entries[c] = e
		}
		if i == len(seq)-1 {
			e.markings = append(e.markings, subHandle)
			break
		}
		if e.child == nil {
			e.child = &aesNode{entries: make(map[int]*aesEntry)}
		}
		node = e.child
	}
	a.size++
	return nil
}

// Delete undoes Insert(seq, subHandle): it removes the marking and prunes
// every cell and table the removal leaves empty, so the tree is the one a
// fresh build of the remaining subscriptions would produce. It reports
// whether the marking was there.
func (a *AES) Delete(seq []int, subHandle int) bool {
	// path[i] is the table probed for seq[i] on the way down.
	path := make([]*aesNode, 0, len(seq))
	node := a.root
	for _, c := range seq {
		if node == nil {
			return false
		}
		e := node.entries[c]
		if e == nil {
			return false
		}
		path = append(path, node)
		node = e.child
	}
	if len(path) == 0 {
		return false
	}
	last := path[len(path)-1].entries[seq[len(seq)-1]]
	n := len(last.markings)
	if last.markings = without(last.markings, subHandle); len(last.markings) == n {
		return false
	}
	for i := len(path) - 1; i >= 0; i-- {
		e := path[i].entries[seq[i]]
		if e.child != nil && len(e.child.entries) == 0 {
			e.child = nil
		}
		if len(e.markings) > 0 || e.child != nil {
			break
		}
		delete(path[i].entries, seq[i])
	}
	a.size--
	return true
}

// Match feeds the ordered satisfied-condition list through the hash-tree
// and returns the handles of all matched subscriptions (those whose whole
// simple-condition sequence is satisfied), ascending and each once, plus
// the number of hash probes performed (for the C3 benchmark). The handles
// are collected and ordered in a pooled scratch; the result is the one
// allocation.
func (a *AES) Match(satisfied []int) (handles []int, probes int) {
	sc := getScratch()
	defer putScratch(sc)
	sc.handles, probes = a.match(satisfied, &sc.frontier, sc.handles)
	sc.handles = ascending(sc.handles, &sc.bits)
	return append([]int(nil), sc.handles...), probes
}

// match is Match over caller-owned scratch: the frontier is rebuilt in
// *frontier and the handles are appended to handles[:0], unordered.
func (a *AES) match(satisfied []int, frontier *[]*aesNode, handles []int) (_ []int, probes int) {
	fr := append((*frontier)[:0], a.root)
	handles = handles[:0]
	for _, c := range satisfied {
		// Snapshot: tables activated by this same condition hold only
		// conditions strictly greater than c, so probing them for c is
		// pointless.
		n := len(fr)
		for i := 0; i < n; i++ {
			probes++
			e := fr[i].entries[c]
			if e == nil {
				continue
			}
			handles = append(handles, e.markings...)
			if e.child != nil {
				fr = append(fr, e.child)
			}
		}
	}
	*frontier = fr
	return handles, probes
}

// Size returns the number of subscriptions in the tree.
func (a *AES) Size() int { return a.size }

// Dump renders the tree structure for Figure 6 style inspection: each line
// is "prefix -> {cond: markings...}". Intended for tests and the explain
// tooling.
func (a *AES) Dump(condName func(int) string) string {
	var b strings.Builder
	var walk func(n *aesNode, prefix []int)
	walk = func(n *aesNode, prefix []int) {
		conds := make([]int, 0, len(n.entries))
		for c := range n.entries {
			conds = append(conds, c)
		}
		sort.Ints(conds)
		name := "H"
		if len(prefix) > 0 {
			parts := make([]string, len(prefix))
			for i, p := range prefix {
				parts[i] = condName(p)
			}
			name = "H[" + strings.Join(parts, ",") + "]"
		}
		fmt.Fprintf(&b, "%s:", name)
		for _, c := range conds {
			e := n.entries[c]
			fmt.Fprintf(&b, " %s", condName(c))
			if len(e.markings) > 0 {
				marks := make([]string, len(e.markings))
				for i, m := range e.markings {
					marks[i] = fmt.Sprintf("#%d", m)
				}
				fmt.Fprintf(&b, "{%s}", strings.Join(marks, ","))
			}
		}
		b.WriteByte('\n')
		for _, c := range conds {
			if e := n.entries[c]; e.child != nil {
				walk(e.child, append(append([]int(nil), prefix...), c))
			}
		}
	}
	walk(a.root, nil)
	return b.String()
}
