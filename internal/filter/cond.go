// Package filter implements the paper's central stream processor
// (Section 4): a multi-subscription filter over streams of XML documents
// that scales to a large number of subscriptions by evaluating cheap
// *simple conditions* on root attributes first (preFilter + the Atomic
// Event Set hash-tree of [15]) and only then running a shared-prefix
// YFilter automaton ([8]) for the *complex* tree-pattern queries that are
// still active.
package filter

import (
	"fmt"
	"slices"
	"sort"

	"p2pm/internal/xmltree"
	"p2pm/internal/xpath"
)

// Cond is a simple condition: an equality or inequality between a root
// attribute and a constant, e.g. callee = "http://meteo.com". Simple
// conditions can be tested from the first tag of a document alone.
type Cond struct {
	Attr  string
	Op    xpath.CmpOp
	Value string
}

// String renders the condition in the paper's dot-free form.
func (c Cond) String() string { return fmt.Sprintf("@%s %s %q", c.Attr, c.Op, c.Value) }

// Eval tests the condition against an attribute value.
func (c Cond) Eval(got string) bool { return xpath.Compare(got, c.Op, c.Value) }

// Validate rejects malformed conditions.
func (c Cond) Validate() error {
	if c.Attr == "" {
		return fmt.Errorf("filter: condition with empty attribute name")
	}
	if c.Op == xpath.OpExists {
		return fmt.Errorf("filter: simple conditions need a comparison operator")
	}
	return nil
}

// condRegistry assigns each distinct simple condition an integer ID and
// indexes the conditions by attribute, so that preFilter finds the ones a
// document satisfies without visiting the others.
//
// The AES algorithm assumes a total order over simple conditions; we use
// ID order. IDs are handed out in registration order and never reused: a
// condition whose last subscription left gives up its slot (and leaves
// the index), and a later registration of the same condition gets a
// fresh, larger ID. The filter bounds the dead slots by compacting.
type condRegistry struct {
	ids    map[Cond]int
	conds  []Cond // by ID; dead slots keep their last value
	refs   []int  // by ID: subscriptions using the condition
	byAttr map[string]*attrIndex
}

// attrIndex holds the conditions testing one attribute. An equality
// whose constant reads as a number can only hold for a document value
// that reads as the same number, and one whose constant does not can
// only hold for the identical string (xpath.Compare falls back to string
// equality, and equal strings read alike), so each document value needs
// one hash probe. Every other operator — and "= NaN", which holds for
// nothing but must not become a map key — waits in a scan list with its
// constant parsed at intern time.
type attrIndex struct {
	eqStr map[string]int    // constant -> the one condition "= constant"
	eqNum map[float64][]int // several spellings of a number share a bucket
	scan  []scanCond
}

type scanCond struct {
	id    int
	op    xpath.CmpOp
	want  string
	num   float64
	isNum bool
}

// constant reads a condition's constant the way the index files it:
// hashed conditions live in eqNum (isNum) or eqStr, the rest in scan.
func (c Cond) constant() (num float64, isNum, hashed bool) {
	num, isNum = xpath.ParseNumber(c.Value)
	return num, isNum, c.Op == xpath.OpEq && num == num
}

func newCondRegistry() *condRegistry {
	return &condRegistry{ids: make(map[Cond]int), byAttr: make(map[string]*attrIndex)}
}

// intern returns the ID for c, registering and indexing it if new.
func (r *condRegistry) intern(c Cond) int {
	if id, ok := r.ids[c]; ok {
		return id
	}
	id := len(r.conds)
	r.ids[c] = id
	r.conds = append(r.conds, c)
	r.refs = append(r.refs, 0)
	idx := r.byAttr[c.Attr]
	if idx == nil {
		idx = &attrIndex{eqStr: make(map[string]int), eqNum: make(map[float64][]int)}
		r.byAttr[c.Attr] = idx
	}
	switch num, isNum, hashed := c.constant(); {
	case !hashed:
		idx.scan = append(idx.scan, scanCond{id: id, op: c.Op, want: c.Value, num: num, isNum: isNum})
	case isNum:
		idx.eqNum[num] = append(idx.eqNum[num], id)
	default:
		idx.eqStr[c.Value] = id
	}
	return id
}

// drop removes a condition nobody uses any more from the index, pruning
// tables it leaves empty. Its ID stays retired.
func (r *condRegistry) drop(id int) {
	c := r.conds[id]
	delete(r.ids, c)
	idx := r.byAttr[c.Attr]
	switch num, isNum, hashed := c.constant(); {
	case !hashed:
		i := slices.IndexFunc(idx.scan, func(sc scanCond) bool { return sc.id == id })
		idx.scan = slices.Delete(idx.scan, i, i+1)
	case isNum:
		if rest := without(idx.eqNum[num], id); len(rest) > 0 {
			idx.eqNum[num] = rest
		} else {
			delete(idx.eqNum, num)
		}
	default:
		delete(idx.eqStr, c.Value)
	}
	if len(idx.eqStr)+len(idx.eqNum)+len(idx.scan) == 0 {
		delete(r.byAttr, c.Attr)
	}
}

// without removes the first x from xs, in place.
func without[T comparable](xs []T, x T) []T {
	if i := slices.Index(xs, x); i >= 0 {
		return slices.Delete(xs, i, i+1)
	}
	return xs
}

// preFilter finds the registered simple conditions a document's root
// attributes satisfy — nothing else of the document is touched — and
// appends their IDs to satisfied[:0], ascending. Each attribute value is
// read as a number or not once, then costs one hash probe plus the
// attribute's scan list; evals counts those probes and scanned
// conditions, for the benchmarks.
func (r *condRegistry) preFilter(attrs []xmltree.Attr, satisfied []int) (_ []int, evals int) {
	satisfied = satisfied[:0]
	for _, a := range attrs {
		idx := r.byAttr[a.Name]
		if idx == nil {
			continue
		}
		evals += 1 + len(idx.scan)
		num, isNum := xpath.ParseNumber(a.Value)
		if isNum {
			satisfied = append(satisfied, idx.eqNum[num]...)
		} else if id, ok := idx.eqStr[a.Value]; ok {
			satisfied = append(satisfied, id)
		}
		for i := range idx.scan {
			sc := &idx.scan[i]
			if isNum && sc.isNum {
				if xpath.Holds(num, sc.op, sc.num) {
					satisfied = append(satisfied, sc.id)
				}
			} else if xpath.Holds(a.Value, sc.op, sc.want) {
				satisfied = append(satisfied, sc.id)
			}
		}
	}
	sort.Ints(satisfied)
	// Duplicate attributes cannot occur in well-formed XML, but inputs can
	// be hostile; dedup to keep AES sound.
	return dedupSorted(satisfied), evals
}

func dedupSorted(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// acquire interns the subscription's simple conditions, counts the new
// user on each, and returns their IDs in ascending order (the AES prefix
// sequence). Duplicate conditions within one subscription collapse.
func (r *condRegistry) acquire(conds []Cond) []int {
	seq := make([]int, 0, len(conds))
	for _, c := range conds {
		seq = append(seq, r.intern(c))
	}
	sort.Ints(seq)
	seq = dedupSorted(seq)
	for _, id := range seq {
		r.refs[id]++
	}
	return seq
}

// release undoes acquire for a departing subscription.
func (r *condRegistry) release(seq []int) {
	for _, id := range seq {
		if r.refs[id]--; r.refs[id] == 0 {
			r.drop(id)
		}
	}
}
