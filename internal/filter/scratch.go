package filter

import (
	"sync"

	"p2pm/internal/xmltree"
)

// scratch is the working memory of one match: everything the stages hand
// each other, kept between documents so that a match allocates nothing
// but its result. A match takes one from the pool and owns it until it
// returns.
type scratch struct {
	attrs     []xmltree.Attr // MatchSerialized: the document's first tag
	satisfied []int          // preFilter: satisfied condition IDs
	frontier  []*aesNode     // AES: active tables
	handles   []int          // AES: matched subscription handles
	active    []*sub         // subscriptions whose complex part must be evaluated
	out       []int          // handles of matching subscriptions
	qids      []int          // query IDs of the active subscriptions

	// YFilter run.
	activeQ     stamps     // by query ID: queries the run may report
	matchedQ    stamps     // by query ID: queries that accepted
	matched     []int      // the members of matchedQ, in acceptance order
	seen        stamps     // by state ID: states already in the set being built
	stack       []*yfState // state sets of the elements on the current path
	all         bool       // report every query, not just activeQ
	transitions int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch   { return scratchPool.Get().(*scratch) }
func putScratch(sc *scratch) { scratchPool.Put(sc) }

// stamps is a set of small non-negative integers that empties in O(1):
// members carry the current epoch.
type stamps struct {
	at    []uint32
	epoch uint32
}

// reset empties the set and makes room for members below n.
func (s *stamps) reset(n int) {
	if len(s.at) < n {
		// Headroom: IDs grow by a few with every subscription change.
		s.at = make([]uint32, n+n/4)
		s.epoch = 0
	}
	s.clear()
}

// clear empties the set. An epoch that wraps around would alias stale
// stamps, so the stamps are wiped when it does.
func (s *stamps) clear() {
	if s.epoch++; s.epoch == 0 {
		clear(s.at)
		s.epoch = 1
	}
}

// add inserts i and reports whether it was absent.
func (s *stamps) add(i int) bool {
	if s.at[i] == s.epoch {
		return false
	}
	s.at[i] = s.epoch
	return true
}

func (s *stamps) has(i int) bool { return s.at[i] == s.epoch }
