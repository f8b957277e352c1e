// Package aggtree builds in-network aggregation trees: it decomposes a
// windowed Group operator over a wide fan-in into a hierarchy of
// PartialAgg leaves (local pre-aggregation, co-located with each source
// branch) and MergeAgg interiors (partial-state combination), with the
// interior nodes placed by DHT key routing so the tree shape is a
// deterministic function of the ring membership — it rebalances when
// peers join or leave, and failover re-derives an interior's host from
// its routing key. The root merge is Final: it emits exactly the flat
// operator's <group> records, at the peer the planner originally chose
// for the Group, so publishers and downstream consumers are unaffected
// by the decomposition.
//
// The point is the ingest hotspot: a flat Group makes one peer ingest
// every monitored stream — the same O(n) convergence eliminated for
// heartbeats (PR 3) and checkpoint keys (PR 4). A degree-d tree caps any
// single peer's fan-in at d partial streams, each bounded by windows ×
// keys items regardless of the subtree's raw event volume. See
// docs/AGGREGATION.md.
package aggtree

import (
	"fmt"

	"p2pm/internal/algebra"
)

// Config parameterizes one rewrite pass.
type Config struct {
	// Degree is the maximum fan-in of any merge node. Group nodes whose
	// union input fans in no more than Degree branches stay flat (the
	// planner's tree-vs-flat decision). Must be >= 2.
	Degree int
	// Place resolves a tree-interior routing key to the hosting peer
	// (typically the first live DHT successor of the key's hash). An
	// empty result keeps the node at the flat Group's planned peer — the
	// safe fallback when the ring cannot answer.
	Place func(key string) string
}

// Key builds the DHT routing key of one interior node: the tree's
// identity (typically the task ID) plus the node's level and index. The
// key is stable across re-deployments, so repair and membership
// rebalancing re-derive the same ring position. Level and index are
// zero-padded so the lexicographic key order equals the construction
// order — bounded placement walks keys in that order on every
// re-derivation.
func Key(id string, level, idx int) string {
	return fmt.Sprintf("aggtree|%s|L%02d|%03d", id, level, idx)
}

// Rewrite returns the plan with every eligible Group decomposed into a
// partial/merge tree, plus the number of trees built. A Group is
// eligible when its input is a Union fanning in more than cfg.Degree
// branches; everything else is left untouched (flat aggregation stays
// the right plan for narrow fan-ins). id scopes the interior routing
// keys — callers pass the task identity. The input plan is modified in
// place and returned (deployment owns its clone).
func Rewrite(plan *algebra.Node, id string, cfg Config) (*algebra.Node, int) {
	if cfg.Degree < 2 {
		return plan, 0
	}
	built := 0
	var walk func(n *algebra.Node) *algebra.Node
	walk = func(n *algebra.Node) *algebra.Node {
		for i, in := range n.Inputs {
			n.Inputs[i] = walk(in)
		}
		if n.Op == algebra.OpGroup {
			if t := build(n, fmt.Sprintf("%s.%d", id, built), cfg); t != nil {
				built++
				return t
			}
		}
		if n.Op == algebra.OpMergeAgg && n.Group != nil && n.Group.Final && len(n.Inputs) > cfg.Degree {
			widen(n, fmt.Sprintf("%s.%d", id, built), cfg)
			built++
		}
		return n
	}
	return walk(plan), built
}

// widen inserts key-routed interior levels under an over-wide Final
// merge root — the shape reuse grafting produces when a root merges
// pre-existing partial streams with fresh leaves — capping every merge
// fan-in at cfg.Degree. Unlike build, every created interior is
// key-routed: the root already exists and keeps its placement.
func widen(root *algebra.Node, id string, cfg Config) {
	nodes := root.Inputs
	level := 0
	for len(nodes) > cfg.Degree {
		level++
		var next []*algebra.Node
		for i := 0; i < len(nodes); i += cfg.Degree {
			end := i + cfg.Degree
			if end > len(nodes) {
				end = len(nodes)
			}
			chunk := nodes[i:end:end]
			if len(chunk) == 1 {
				next = append(next, chunk[0])
				continue
			}
			key, peer := Key(id, level, len(next)), ""
			if cfg.Place != nil {
				peer = cfg.Place(key)
			}
			if peer == "" {
				peer = root.Peer
			}
			next = append(next, &algebra.Node{
				Op: algebra.OpMergeAgg, Peer: peer, AggKey: key, Inputs: chunk,
				Schema: append([]string(nil), root.Schema...),
				Group:  root.Group.WithFinal(false),
			})
		}
		nodes = next
	}
	root.Inputs = nodes
}

// Split re-chunks one hot merge node's fan-in at runtime: the node's
// children are divided into two halves, each pushed down under a fresh
// key-routed sub-interior, so the hot node ingests two partial streams
// where it ingested k. It is the load-adaptive counterpart of the
// static Degree cap: Rewrite bounds fan-in by shape, Split bounds it by
// observed ingest. The node is modified in place; the newly created
// interiors are returned so the runtime can deploy them (empty when the
// node is too narrow — every sub-interior must merge at least two
// children, so k >= 4 is required). id must be unique per split (the
// runtime passes a fresh sequence-numbered tree identity) so the new
// routing keys collide with nothing already placed.
func Split(n *algebra.Node, id string, cfg Config) []*algebra.Node {
	k := len(n.Inputs)
	if n.Op != algebra.OpMergeAgg || n.Group == nil || k < 4 {
		return nil
	}
	size := (k + 1) / 2
	var next, created []*algebra.Node
	for i := 0; i < k; i += size {
		end := i + size
		if end > k {
			end = k
		}
		chunk := n.Inputs[i:end:end]
		key, peer := Key(id, 1, len(next)), ""
		if cfg.Place != nil {
			peer = cfg.Place(key)
		}
		if peer == "" {
			peer = n.Peer
		}
		m := &algebra.Node{
			Op: algebra.OpMergeAgg, Peer: peer, AggKey: key, Inputs: chunk,
			Schema: append([]string(nil), n.Schema...),
			Group:  n.Group.WithFinal(false),
		}
		next = append(next, m)
		created = append(created, m)
	}
	n.Inputs = next
	return created
}

// build decomposes one Group node, or returns nil when it should stay
// flat.
func build(g *algebra.Node, id string, cfg Config) *algebra.Node {
	if len(g.Inputs) != 1 || g.Inputs[0].Op != algebra.OpUnion {
		return nil
	}
	branches := g.Inputs[0].Inputs
	if len(branches) <= cfg.Degree {
		return nil
	}

	// Leaves: one PartialAgg per union branch, co-located with the
	// branch's output so raw events never cross the network — the union
	// (and its fan-in) disappears entirely.
	spec := g.Group.WithFinal(false)
	nodes := make([]*algebra.Node, len(branches))
	for i, c := range branches {
		nodes[i] = &algebra.Node{
			Op: algebra.OpPartialAgg, Peer: c.Peer, Inputs: []*algebra.Node{c},
			Schema: append([]string(nil), g.Schema...), Group: spec,
		}
	}

	// Interior levels: chunk into parents of fan-in <= Degree until one
	// node remains. Singleton chunks pass through unwrapped (a 1-ary
	// merge would only add a hop). Interiors are placed by DHT key
	// routing; the key records level and index, so the shape is
	// deterministic per membership. The last level — the one that
	// collapses to a single node, the root — is NOT key-routed: its host
	// is the planner's original Group placement, and it must not consume
	// bounded-placer state either, or re-deriving the placement from the
	// surviving routing keys (System.AggPlacements) would diverge from
	// the deployed one whenever a plan holds a second tree.
	level := 0
	for len(nodes) > 1 {
		level++
		rootLevel := len(nodes) <= cfg.Degree
		var next []*algebra.Node
		for i := 0; i < len(nodes); i += cfg.Degree {
			end := i + cfg.Degree
			if end > len(nodes) {
				end = len(nodes)
			}
			chunk := nodes[i:end:end]
			if len(chunk) == 1 {
				next = append(next, chunk[0])
				continue
			}
			key, peer := "", ""
			if !rootLevel {
				key = Key(id, level, len(next))
				if cfg.Place != nil {
					peer = cfg.Place(key)
				}
			}
			if peer == "" {
				peer = g.Peer
			}
			next = append(next, &algebra.Node{
				Op: algebra.OpMergeAgg, Peer: peer, AggKey: key, Inputs: chunk,
				Schema: append([]string(nil), g.Schema...),
				Group:  g.Group.WithFinal(false),
			})
		}
		nodes = next
	}

	// Root: Final, at the planner's original Group placement (the
	// publisher's subscription and any downstream consumers stay local
	// to where the flat aggregate would have been).
	root := nodes[0]
	root.Peer = g.Peer
	root.AggKey = ""
	root.Group = g.Group.WithFinal(true)
	return root
}

// Interiors returns the merge nodes of a rewritten plan that are placed
// by DHT routing (AggKey set), in plan postorder — the set failover
// re-places and membership changes rebalance.
func Interiors(plan *algebra.Node) []*algebra.Node {
	var out []*algebra.Node
	plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpMergeAgg && n.AggKey != "" {
			out = append(out, n)
		}
	})
	return out
}
