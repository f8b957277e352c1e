package algebra

import (
	"slices"

	"p2pm/internal/p2pml"
)

// Options configures optimization.
type Options struct {
	// SubscriberPeer hosts the publisher (the peer that accepted the
	// subscription, p in Figure 4).
	SubscriberPeer string
	// Pushdown enables selection pushdown toward the sources (the paper's
	// "selections were pushed as much as possible to the proximity of the
	// sources to save on communications"), then Π pushdown through
	// unions. Disabled only for the C5 baseline measurement and for
	// re-placement after the reuse pass.
	Pushdown bool
}

// DefaultOptions returns the standard optimizer configuration.
func DefaultOptions(subscriber string) Options {
	return Options{SubscriberPeer: subscriber, Pushdown: true}
}

// Optimize rewrites the plan in place using algebraic rewrite rules
// (canonicalization, selection pushdown, σ-merging, Π through ∪) and the
// placement heuristics of Section 3.4, and returns it. Canonicalization
// runs on every call, with or without Pushdown. After Optimize every
// operator is concrete: no peer is left @any.
func Optimize(plan *Node, opts Options) *Node {
	plan = canonicalize(plan)
	if opts.Pushdown {
		plan = pushProjections(pushdown(plan))
	}
	place(plan, opts.SubscriberPeer, false)
	return plan
}

// canonicalize brings a plan to the normal form the later rewrites
// recognise. It drops an identity Π that sits directly under a γ or a δ:
// P2PML compiles `return $e group …` to γ(Π[$e](∪(…))), and only γ
// directly over ∪ becomes an aggregation tree and signs as one
// (aggtree.Rewrite, FlatGroupSignature). The Π is the identity when it
// returns its input's one variable with no LET: bindItem binds a
// single-variable stream's item itself, RestructApply then returns a
// clone of that tree, and γ and δ only read the tree they are handed.
func canonicalize(n *Node) *Node {
	for i := range n.Inputs {
		n.Inputs[i] = canonicalize(n.Inputs[i])
		if (n.Op == OpGroup || n.Op == OpDistinct) && isIdentityRestruct(n.Inputs[i]) {
			n.Inputs[i] = n.Inputs[i].Inputs[0]
		}
	}
	return n
}

// isIdentityRestruct reports whether n is a Π that returns its input's
// single variable unchanged: Restruct is a bare $v with no LET, over an
// input whose schema is exactly [v].
func isIdentityRestruct(n *Node) bool {
	if n.Op != OpRestruct || len(n.Inputs) != 1 || len(n.Restruct.Lets) > 0 {
		return false
	}
	ref, ok := n.Restruct.Expr.(*p2pml.VarRef)
	schema := n.Inputs[0].Schema
	return ok && len(schema) == 1 && schema[0] == ref.Var
}

// pushProjections moves every Π that sits directly over a ∪ into the
// union's branches: Π works item by item, so Π(∪(b₁, …, bₙ)) =
// ∪(Π(b₁), …, Π(bₙ)), and placement then runs each copy on its branch's
// peer, where the item it cuts down is produced. Two Π stay put, because
// their output is no smaller than their input: the identity (return $v)
// and a template that splices a whole input tree (<x>{$e}</x>). It runs
// after σ pushdown, so the conditions are already inside the branches.
func pushProjections(n *Node) *Node {
	for i := range n.Inputs {
		n.Inputs[i] = pushProjections(n.Inputs[i])
	}
	if !pushesThroughUnion(n) {
		return n
	}
	u := n.Inputs[0]
	for i, b := range u.Inputs {
		u.Inputs[i] = pushProjections(&Node{
			Op: OpRestruct, Peer: AnyPeer, Inputs: []*Node{b},
			Schema: append([]string(nil), n.Schema...), Restruct: n.Restruct,
		})
	}
	u.Schema = n.Schema
	return u
}

// pushesThroughUnion reports whether n is a Π directly over a ∪ that
// Optimize moves into the union's branches.
func pushesThroughUnion(n *Node) bool {
	if n.Op != OpRestruct || len(n.Inputs) != 1 || n.Inputs[0].Op != OpUnion {
		return false
	}
	if r := n.Restruct; r.Expr != nil {
		_, identity := r.Expr.(*p2pml.VarRef)
		return !identity
	}
	return n.Restruct.Template != nil && !n.Restruct.Template.SplicesVar()
}

// pushdown pushes each σ condition as close to its source as the schemas
// allow: through joins into the side that binds the condition's
// variables, and through unions into every branch.
func pushdown(n *Node) *Node {
	for i := range n.Inputs {
		n.Inputs[i] = pushdown(n.Inputs[i])
	}
	if n.Op != OpSelect {
		return n
	}
	var remaining []p2pml.Condition
	for _, cond := range n.Select.Conds {
		if !tryPush(n, 0, cond, n.Select.Lets) {
			remaining = append(remaining, cond)
		}
	}
	if len(remaining) == 0 {
		return n.Inputs[0]
	}
	n.Select.Conds = remaining
	return n
}

// tryPush attempts to place cond strictly below parent (into or under
// parent.Inputs[idx]). It reports whether the condition was absorbed.
func tryPush(parent *Node, idx int, cond p2pml.Condition, lets []p2pml.LetBinding) bool {
	child := parent.Inputs[idx]
	vars := condStreamVars(cond, lets)
	if len(vars) == 0 || !subset(vars, child.Schema) {
		return false
	}
	switch child.Op {
	case OpSelect:
		// Merge into the existing σ rather than stacking single-condition
		// selections.
		child.Select.Conds = append(child.Select.Conds, cond)
		child.Select.Lets = mergeLets(child.Select.Lets, NeededLets(lets, cond))
		return true
	case OpJoin:
		switch {
		case subset(vars, child.Inputs[0].Schema):
			if !tryPush(child, 0, cond, lets) {
				wrapSelect(child, 0, cond, lets)
			}
		case subset(vars, child.Inputs[1].Schema):
			if !tryPush(child, 1, cond, lets) {
				wrapSelect(child, 1, cond, lets)
			}
		default:
			// Spans both sides: park it directly above the join.
			wrapSelect(parent, idx, cond, lets)
		}
		return true
	case OpUnion:
		for i := range child.Inputs {
			if !tryPush(child, i, cond, lets) {
				wrapSelect(child, i, cond, lets)
			}
		}
		return true
	case OpAlerter, OpChannelIn, OpDynAlerter, OpRestruct:
		wrapSelect(parent, idx, cond, lets)
		return true
	}
	// Distinct, Group: σ does not commute with these in general
	// (duplicate windows observe the unfiltered stream), so stop here.
	return false
}

// wrapSelect inserts σ[cond] between parent and parent.Inputs[idx].
func wrapSelect(parent *Node, idx int, cond p2pml.Condition, lets []p2pml.LetBinding) {
	child := parent.Inputs[idx]
	parent.Inputs[idx] = &Node{
		Op:     OpSelect,
		Peer:   AnyPeer,
		Inputs: []*Node{child},
		Schema: child.Schema,
		Select: &SelectSpec{Conds: []p2pml.Condition{cond}, Lets: NeededLets(lets, cond)},
	}
}

// condStreamVars expands a condition's variables through the given LET
// bindings down to stream variables.
func condStreamVars(cond p2pml.Condition, lets []p2pml.LetBinding) []string {
	vars := cond.Vars()
	for _, l := range NeededLets(lets, cond) {
		vars = append(vars, l.Expr.Vars()...)
	}
	return slices.DeleteFunc(vars, func(v string) bool {
		return slices.ContainsFunc(lets, func(l p2pml.LetBinding) bool { return l.Var == v })
	})
}

// NeededLets filters lets to those any of the conditions references
// (transitively), preserving declaration order. A σ carrying exactly
// these bindings is equivalent to one carrying the full set, so rewrites
// that narrow a σ's conditions (pushdown, subsumption residuals) use it
// to keep the narrowed node identical to an equivalently hand-written
// filter.
func NeededLets(lets []p2pml.LetBinding, conds ...p2pml.Condition) []p2pml.LetBinding {
	byVar := make(map[string]p2pml.LetBinding, len(lets))
	for _, l := range lets {
		byVar[l.Var] = l
	}
	needed := make(map[string]bool)
	var mark func(v string)
	mark = func(v string) {
		if l, ok := byVar[v]; ok && !needed[v] {
			needed[v] = true
			for _, inner := range l.Expr.Vars() {
				mark(inner)
			}
		}
	}
	for _, cond := range conds {
		for _, v := range cond.Vars() {
			mark(v)
		}
	}
	var out []p2pml.LetBinding
	for _, l := range lets {
		if needed[l.Var] {
			out = append(out, l)
		}
	}
	return out
}

func mergeLets(a, b []p2pml.LetBinding) []p2pml.LetBinding {
	have := make(map[string]bool, len(a))
	for _, l := range a {
		have[l.Var] = true
	}
	for _, l := range b {
		if !have[l.Var] {
			a = append(a, l)
			have[l.Var] = true
		}
	}
	return a
}

func subset(vars, schema []string) bool {
	if len(vars) == 0 {
		return false
	}
	in := make(map[string]bool, len(schema))
	for _, s := range schema {
		in[s] = true
	}
	for _, v := range vars {
		if !in[v] {
			return false
		}
	}
	return true
}

// place assigns a concrete peer to every operator, bottom-up:
//   - alerters stay at their monitored peer (by definition);
//   - channel inputs are attributed to the publishing peer;
//   - unary processors run where their input runs (no extra transfer);
//   - a ∪ whose output reaches the publisher, directly or through Π's
//     alone, runs at the subscriber: it only passes items through, so
//     each item crosses the network once, from its branch to the reader,
//     and the Π's above it follow it there;
//   - every other ∪, and every ⋈, runs at its last input's peer —
//     matching Figure 4, where the union of a.com/b.com filters, which
//     feeds the join, runs at b.com and the join at meteo.com;
//   - publishers and dynamic alerter managers run at the subscriber.
//
// toPublisher reports that n's output reaches the publisher through Π's
// alone; Optimize places the root with false.
func place(n *Node, subscriber string, toPublisher bool) {
	for _, in := range n.Inputs {
		place(in, subscriber, n.Op == OpPublish || toPublisher && n.Op == OpRestruct)
	}
	switch n.Op {
	case OpAlerter:
		n.Peer = n.Alerter.Peer
	case OpChannelIn:
		n.Peer = n.Channel.PeerID
	case OpDynAlerter, OpPublish:
		n.Peer = subscriber
	case OpUnion, OpJoin:
		n.Peer = n.Inputs[len(n.Inputs)-1].Peer
		if n.Op == OpUnion && toPublisher {
			n.Peer = subscriber
		}
	case OpMergeAgg:
		// Tree roots and key-routed interiors carry deliberate placements
		// (the planner's Group peer, DHT routing); re-placement must not
		// drag them to an input's peer.
		if n.Peer == AnyPeer || n.Peer == "" {
			n.Peer = n.Inputs[len(n.Inputs)-1].Peer
		}
	default:
		if len(n.Inputs) > 0 {
			n.Peer = n.Inputs[0].Peer
		} else if n.Peer == AnyPeer {
			n.Peer = subscriber
		}
	}
}
