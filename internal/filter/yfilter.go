package filter

import (
	"fmt"
	"slices"
	"sort"

	"p2pm/internal/xmltree"
	"p2pm/internal/xpath"
)

// YFilter is a shared-prefix NFA over linear path queries, after [8]
// (Diao et al., "YFilter", ICDE 2002). All registered queries are compiled
// into one automaton whose states are shared between queries with common
// path prefixes, so a single traversal of the document matches every query
// at once. Final-step predicates (attribute tests, nested structural
// predicates) are checked at accepting states.
//
// P2PM runs a *pruned* variant (the paper's YFilterσ): matching is
// restricted to the queries still active after the AES stage, passed per
// document to MatchActive.
type YFilter struct {
	start   *yfState
	nstates int // live states
	nextID  int // state IDs handed out so far; IDs of pruned states stay retired
	queries int
	qidEnd  int // one past the largest query ID ever added
}

type yfState struct {
	id       int
	parent   *yfState // nil for the start state
	label    string   // key in parent.children; "" for wildcard and dslash states
	children map[string]*yfState
	wildcard *yfState
	dslash   *yfState // descendant-axis helper state, self-looping
	selfLoop bool
	accepts  []yfAccept
}

type yfAccept struct {
	qid      int
	preds    []xpath.Pred
	termAttr string // terminal @attr step: attribute must exist
	termText bool   // terminal text() step: element must carry text
}

// NewYFilter returns an empty automaton.
func NewYFilter() *YFilter {
	y := &YFilter{}
	y.start = y.newState(nil, "")
	return y
}

func (y *YFilter) newState(parent *yfState, label string) *yfState {
	s := &yfState{id: y.nextID, parent: parent, label: label, children: make(map[string]*yfState)}
	y.nextID++
	y.nstates++
	return s
}

// States returns the number of NFA states, the quantity whose sub-linear
// growth in the number of queries is YFilter's core scaling claim
// (bench C4).
func (y *YFilter) States() int { return y.nstates }

// Queries returns the number of registered queries.
func (y *YFilter) Queries() int { return y.queries }

// walk follows p's element steps from the start state to the state that
// accepts it, creating missing states when create is set and returning a
// nil state otherwise. acc carries what the accepting state must check.
func (y *YFilter) walk(p *xpath.Path, create bool) (*yfState, yfAccept) {
	cur := y.start
	var acc yfAccept
	for _, step := range p.Steps {
		switch step.Kind {
		case xpath.AttrKind:
			acc.termAttr = step.Label
			continue
		case xpath.TextKind:
			acc.termText = true
			continue
		}
		if step.Axis == xpath.Descendant {
			if cur.dslash == nil {
				if !create {
					return nil, acc
				}
				cur.dslash = y.newState(cur, "")
				cur.dslash.selfLoop = true
			}
			cur = cur.dslash
		}
		next := cur.children[step.Label]
		if step.Label == "*" {
			next = cur.wildcard
		}
		if next == nil {
			if !create {
				return nil, acc
			}
			if step.Label == "*" {
				next = y.newState(cur, "")
				cur.wildcard = next
			} else {
				next = y.newState(cur, step.Label)
				cur.children[step.Label] = next
			}
		}
		cur = next
		// IsLinear guarantees predicates occur only on the last element
		// step, so collecting them unconditionally is safe.
		acc.preds = append(acc.preds, step.Preds...)
	}
	return cur, acc
}

// Add compiles a linear path query into the automaton under the given
// query ID. Paths are evaluated rooted at the document: the first step
// tests the document's root element. Non-linear paths are rejected; the
// caller (Filter) falls back to direct tree-pattern evaluation for those.
func (y *YFilter) Add(qid int, p *xpath.Path) error {
	if qid < 0 {
		return fmt.Errorf("filter: negative query ID %d", qid)
	}
	if len(p.Steps) == 0 {
		return fmt.Errorf("filter: empty path")
	}
	if !p.IsLinear() {
		return fmt.Errorf("filter: path %s is not linear", p)
	}
	switch p.Steps[0].Kind {
	case xpath.AttrKind:
		return fmt.Errorf("filter: attribute-only path %s", p)
	case xpath.TextKind:
		return fmt.Errorf("filter: text-only path %s", p)
	}
	s, acc := y.walk(p, true)
	acc.qid = qid
	s.accepts = append(s.accepts, acc)
	y.queries++
	y.qidEnd = max(y.qidEnd, qid+1)
	return nil
}

// Remove undoes Add(qid, p) and prunes the states only that query kept
// alive, so the automaton is the one a fresh build of the remaining
// queries would produce. It reports whether the query was there.
func (y *YFilter) Remove(qid int, p *xpath.Path) bool {
	s, _ := y.walk(p, false)
	if s == nil {
		return false
	}
	i := 0
	for i < len(s.accepts) && s.accepts[i].qid != qid {
		i++
	}
	if i == len(s.accepts) {
		return false
	}
	s.accepts = append(s.accepts[:i], s.accepts[i+1:]...)
	y.queries--
	for s.parent != nil && len(s.accepts) == 0 && len(s.children) == 0 && s.wildcard == nil && s.dslash == nil {
		up := s.parent
		switch s {
		case up.dslash:
			up.dslash = nil
		case up.wildcard:
			up.wildcard = nil
		default:
			delete(up.children, s.label)
		}
		y.nstates--
		s = up
	}
	return true
}

// MatchResult reports which queries matched and how much work the run did.
type MatchResult struct {
	Matched     []int // query IDs, ascending, deduplicated
	Transitions int   // NFA transitions taken (work measure for C4)
}

// MatchAll matches every registered query against the document.
func (y *YFilter) MatchAll(doc *xmltree.Node) MatchResult {
	return y.MatchActive(doc, nil)
}

// MatchActive matches only the queries in the active set (YFilterσ).
// A nil active set means "all queries".
func (y *YFilter) MatchActive(doc *xmltree.Node, active map[int]bool) MatchResult {
	if active != nil && len(active) == 0 {
		return MatchResult{}
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.activeQ.reset(y.qidEnd)
	for q, on := range active {
		if on && q >= 0 && q < y.qidEnd {
			sc.activeQ.add(q)
		}
	}
	res := MatchResult{Transitions: y.run(sc, doc, active == nil)}
	res.Matched = slices.Clone(sc.matched)
	sort.Ints(res.Matched)
	return res
}

// run traverses doc once. Every query that accepts — among those in
// sc.activeQ, or among all of them — is added to sc.matchedQ and its ID
// appended to sc.matched[:0]. It returns the NFA transitions taken.
func (y *YFilter) run(sc *scratch, doc *xmltree.Node, all bool) int {
	sc.matchedQ.reset(y.qidEnd)
	sc.matched = sc.matched[:0]
	sc.all = all
	sc.transitions = 0
	// The start set is the closure of the start state: the virtual
	// document node sits "above" the root element, so /a tests the root
	// element and //a tests any element.
	sc.seen.reset(y.nextID)
	sc.stack = sc.stack[:0]
	sc.push(y.start)
	sc.visit(doc, 0, len(sc.stack))
	return sc.transitions
}

// push adds s and its dslash closure to the state set being built on top
// of the stack, once each.
func (sc *scratch) push(s *yfState) {
	for ; s != nil; s = s.dslash {
		if sc.seen.add(s.id) {
			sc.stack = append(sc.stack, s)
		}
	}
}

// visit advances the states sc.stack[lo:hi], active at n's parent, over
// element n and recurses into n's children. State sets live on one stack,
// addressed by index because pushing may move it.
func (sc *scratch) visit(n *xmltree.Node, lo, hi int) {
	if n.IsText() {
		return
	}
	// Self-looping descendant states would otherwise multiply.
	sc.seen.clear()
	for i := lo; i < hi; i++ {
		s := sc.stack[i]
		if t := s.children[n.Label]; t != nil {
			sc.transitions++
			sc.push(t)
		}
		if s.wildcard != nil {
			sc.transitions++
			sc.push(s.wildcard)
		}
		if s.selfLoop {
			sc.push(s)
		}
	}
	top := len(sc.stack)
	for i := hi; i < top; i++ {
		accepts := sc.stack[i].accepts
		for j := range accepts {
			acc := &accepts[j]
			if !sc.all && !sc.activeQ.has(acc.qid) || sc.matchedQ.has(acc.qid) {
				continue
			}
			if acceptHolds(acc, n) {
				sc.matchedQ.add(acc.qid)
				sc.matched = append(sc.matched, acc.qid)
			}
		}
	}
	if top > hi { // else no state can progress below this element
		for _, c := range n.Children {
			sc.visit(c, hi, top)
		}
	}
	sc.stack = sc.stack[:hi]
}

func acceptHolds(acc *yfAccept, n *xmltree.Node) bool {
	if acc.termAttr != "" {
		if _, ok := n.Attr(acc.termAttr); !ok {
			return false
		}
	}
	if acc.termText && n.InnerText() == "" {
		return false
	}
	return xpath.PredsHold(n, acc.preds, nil)
}
