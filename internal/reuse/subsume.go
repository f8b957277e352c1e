package reuse

import (
	"slices"

	"p2pm/internal/algebra"
	"p2pm/internal/kadop"
	"p2pm/internal/p2pml"
	"p2pm/internal/stream"
)

// This file implements subsumption-based reuse, the paper's future-work
// item "detecting and reusing streams that hold sufficient data"
// (Section 7): a published filter σ_A(s) holds sufficient data for a new
// task σ_{A∧B}(s), so the new task deploys only the residual σ_B over a
// subscription to the existing stream. Chains compose: once σ_B over
// σ_A(s) is itself published, a third σ_{A∧B}(s) subscription reuses the
// chain fully and deploys nothing.

// partialMatch records a σ node whose conditions are partially covered by
// a chain of published filter streams.
type partialMatch struct {
	def      *kadop.StreamDef // the deepest covering stream
	residual []p2pml.Condition
}

// subsume attempts to cover the conditions of σ node n (whose single
// input resolved to childRef) with published filter streams over
// childRef, chaining through derived filters. It returns either a full
// matchInfo (all conditions covered) or a partialMatch (some covered).
func (o Options) subsume(n *algebra.Node, childRef stream.Ref, db *kadop.DB, r *Result) (*matchInfo, *partialMatch, error) {
	// Covers compare in algebra's canonical form: LETs inlined, the
	// stream variable written $_.
	remaining, ok := algebra.CanonConds(n)
	if !ok || len(remaining) == 0 {
		return nil, nil, nil
	}
	cur := childRef
	var deepest *kadop.StreamDef
	for len(remaining) > 0 {
		candidates, hops, err := db.FindByOperand(o.From, "Filter", cur)
		r.Lookups++
		r.Hops += hops
		if err != nil {
			return nil, nil, err
		}
		var best *kadop.StreamDef
		for _, c := range candidates {
			// A cover filters on remaining conditions only.
			if len(c.Conds) == 0 || slices.ContainsFunc(c.Conds, func(k string) bool { return remaining[k] == nil }) {
				continue
			}
			if best == nil || len(c.Conds) > len(best.Conds) ||
				(len(c.Conds) == len(best.Conds) && c.Ref.String() < best.Ref.String()) {
				// Widest cover first; equal covers tie-break on the stream
				// reference so the choice does not depend on DB enumeration
				// order (two managers resolving the same subscription must
				// pick the same provider).
				best = c
			}
		}
		if best == nil {
			break
		}
		for _, covered := range best.Conds {
			delete(remaining, covered)
		}
		cur = best.Ref
		deepest = best
	}
	if deepest == nil {
		return nil, nil, nil
	}
	if len(remaining) == 0 {
		m := matchOf(deepest)
		return &m, nil, nil
	}
	// Keep declaration order of the residual conditions for determinism.
	var residual []p2pml.Condition
	for _, cond := range n.Select.Conds {
		for _, rc := range remaining {
			if rc == cond {
				residual = append(residual, cond)
				break
			}
		}
	}
	return nil, &partialMatch{def: deepest, residual: residual}, nil
}
