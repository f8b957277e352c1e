package filter

import (
	"math/bits"
	"slices"
	"sync"

	"p2pm/internal/xmltree"
)

// scratch is the working memory of one match: everything the stages hand
// each other, kept between documents so that a match allocates nothing
// but its result. A match takes one from the pool and owns it until it
// returns.
type scratch struct {
	attrs     []xmltree.Attr  // MatchSerialized: the document's first tag
	tree      xmltree.Builder // MatchSerialized: the parsed document
	satisfied []int           // preFilter: satisfied condition IDs
	frontier  []*aesNode      // AES: active tables
	handles   []int           // AES: matched subscription handles
	active    []*sub          // subscriptions whose complex part must be evaluated
	out       []int           // handles of matching subscriptions
	qids      []int           // query IDs of the active subscriptions
	bits      []uint64        // ascending: a bitmap over a handle range, zero between uses

	// YFilter run.
	activeQ     stamps     // by query ID: queries the run may report
	matchedQ    stamps     // by query ID: queries that accepted
	matched     []int      // the members of matchedQ, in acceptance order
	seen        stamps     // by state ID: states already in the set being built
	stack       []*yfState // state sets of the elements on the current path
	all         bool       // report every query, not just activeQ
	transitions int
}

// A pooled scratch holds no document: putScratch zeroes the first tag
// and what the parse used of the tree's chunks, so the pool keeps no
// document alive. The chunks themselves stay. Builder.Parse replaces a
// chunk only for a document it cannot hold, so each is as large as the
// most nodes or attributes one document its scratch parsed had: about
// 90 bytes per node and 32 per attribute, a few kB for a generated
// alert. The parser's estimate caps both counts at what a well-formed
// document of that length could hold, so a garbage alert reserves no
// more than a real one of its size. There is one scratch per match in
// flight, and sync.Pool lets go of an idle one within two collections,
// so a burst of large alerts does not pin its chunks for long.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) {
	clear(sc.attrs)
	sc.tree.Reset()
	scratchPool.Put(sc)
}

// sortMax is the most handles ascending always sorts by comparison.
const sortMax = 64

// ascending puts handles in ascending order, each once, in place. More
// than sortMax handles whose range spans at most 64 values per handle
// are marked in a bitmap over that range and read back in order, linear
// in the handles plus range/64 words; all others are sorted.
func ascending(handles []int, bitmap *[]uint64) []int {
	if len(handles) > sortMax {
		lo := slices.Min(handles)
		if words := uint(slices.Max(handles)-lo)/64 + 1; words <= uint(len(handles)) { // as uint, no span overflows
			if uint(cap(*bitmap)) < words {
				*bitmap = make([]uint64, words)
			}
			set := (*bitmap)[:words]
			for _, h := range handles {
				set[uint(h-lo)/64] |= 1 << (uint(h-lo) % 64)
			}
			out := handles[:0] // every mark is set before the first write
			for i, w := range set {
				for ; w != 0; w &= w - 1 {
					out = append(out, lo+64*i+bits.TrailingZeros64(w))
				}
				set[i] = 0
			}
			return out
		}
	}
	slices.Sort(handles)
	return dedupSorted(handles)
}

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
