package reuse

import (
	"cmp"
	"slices"

	"p2pm/internal/algebra"
	"p2pm/internal/kadop"
)

// This file implements aggregate-tree sharing: the containment analogue
// of filter subsumption. Partial-aggregation streams (PartialAgg leaves
// and non-final MergeAgg interiors of deployed trees) are published with
// the aggregate's identity and the set of source streams they pre-merge.
// A new Group subscription over a union whose source set *contains* a
// published partial stream's sources grafts that stream in as a
// pre-merged input — the covered branches and their leaf aggregation are
// never deployed again — and merges it with fresh partial leaves for the
// uncovered remainder. When the source sets coincide exactly, the
// existing tree's Final root is found by plain signature matching
// instead (it publishes under the flat Group alias), so grafting only
// handles the strictly-contained case.

// aggCover is a disjoint cover of (part of) a Group-over-union's
// branches by published partial streams, each chosen to cover part of
// the aggregate's source set.
type aggCover struct {
	parts   []*kadop.StreamDef
	covered map[string]bool // branch signatures absorbed by parts
}

// coverAgg looks for published partial-aggregation streams of the same
// aggregate identity whose source sets are contained in n's union, and
// greedily assembles a disjoint cover, widest streams first with
// Ref-order tie-breaking so two managers resolving the same subscription
// build the same graft. Returns nil when n is not a Group over a union,
// branches are ambiguous (duplicate identities), or nothing covers.
func (o Options) coverAgg(n *algebra.Node, db *kadop.DB, st *matchState, r *Result) (*aggCover, error) {
	if n.Op != algebra.OpGroup || n.Group == nil ||
		len(n.Inputs) != 1 || n.Inputs[0].Op != algebra.OpUnion {
		return nil, nil
	}
	want := make(map[string]bool)
	for _, b := range n.Inputs[0].Inputs {
		s := st.sigs[b]
		if s == "" || want[s] {
			// Unknown or duplicate branch identity: a cover could double-
			// or mis-count events, so fall back to building the tree fresh.
			return nil, nil
		}
		want[s] = true
	}
	cands, hops, err := db.FindAggParts(o.From, n.Group.Ident())
	r.Lookups++
	r.Hops += hops
	if err != nil {
		// Sharing is an optimization: a failed containment query degrades
		// to an unshared tree, but must not pass silently.
		r.FailedLookups++
		return nil, nil
	}
	// The lookup returns the candidates in Ref-string order, which a
	// stable sort by width keeps among equals.
	slices.SortStableFunc(cands, func(a, b *kadop.StreamDef) int {
		return cmp.Compare(len(b.Sources), len(a.Sources))
	})
	covered := make(map[string]bool)
	var parts []*kadop.StreamDef
	for _, c := range cands {
		if len(c.Sources) == 0 {
			continue
		}
		fits := true
		for _, s := range c.Sources {
			if !want[s] || covered[s] {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		for _, s := range c.Sources {
			covered[s] = true
		}
		parts = append(parts, c)
	}
	if len(parts) == 0 {
		return nil, nil
	}
	return &aggCover{parts: parts, covered: covered}, nil
}

// graftNode builds the replacement for a covered Group-over-union: a
// Final merge at the planner's Group placement, fed by channel
// subscriptions to the covering partial streams plus fresh PartialAgg
// leaves over the uncovered branches (placed with their branch once the
// plan is re-placed). Over-wide grafts are later chunked into interior
// levels by aggtree.Rewrite.
func (o Options) graftNode(n *algebra.Node, c *aggCover, db *kadop.DB, st *matchState, r *Result) *algebra.Node {
	union := n.Inputs[0]
	inputs := make([]*algebra.Node, 0, len(c.parts)+len(union.Inputs))
	for _, p := range c.parts {
		inputs = append(inputs, o.channelNode(n, matchOf(p), db, r))
	}
	leafSpec := n.Group.WithFinal(false)
	for _, b := range union.Inputs {
		if c.covered[st.sigs[b]] {
			r.ReusedOps += b.Count()
			continue
		}
		inputs = append(inputs, &algebra.Node{
			Op:     algebra.OpPartialAgg,
			Peer:   algebra.AnyPeer,
			Inputs: []*algebra.Node{o.rewrite(b, db, st, r)},
			Schema: append([]string(nil), n.Schema...),
			Group:  leafSpec,
		})
	}
	return &algebra.Node{
		Op:     algebra.OpMergeAgg,
		Peer:   n.Peer,
		Inputs: inputs,
		Schema: append([]string(nil), n.Schema...),
		Group:  n.Group.WithFinal(true),
	}
}
