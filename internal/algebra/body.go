package algebra

import (
	"slices"

	"p2pm/internal/p2pml"
)

// BodyMark says whether a WS alerter's alerts carry the intercepted SOAP
// envelope below their root. Most subscriptions test root attributes
// only (the paper's Filter keeps those conditions apart from body
// patterns), and the envelope is most of an alert's bytes, so
// MarkBodyReaders leaves it out wherever the plan cannot observe it.
type BodyMark uint8

// The marks. The zero value, an alerter no marking has seen, keeps the
// envelope: a plan deployed unmarked costs speed, never content. It signs
// and renders as a bare alerter did before marks existed, so only
// BodyRead alerters get a new signature.
const (
	BodyUnmarked BodyMark = iota
	BodyUnread            // the plan reads root attributes only: alerts go bare
	BodyRead              // the plan can observe the subtree: alerts carry the envelope
)

// Envelope reports whether the alerter node's alerts carry the envelope.
func (n *Node) Envelope() bool { return n.Body != BodyUnread }

// bodySuffix tags a body-carrying alerter's rendering and signature.
func (n *Node) bodySuffix() string {
	if n.Body == BodyRead {
		return "+body"
	}
	return ""
}

// MarkBodyReaders marks every WS alerter of plan (OpAlerter of kind
// ws-in/ws-out, OpDynAlerter) as a body reader when the plan can observe
// its variable's subtree, and bare otherwise, and returns plan. An
// alerter's subtree is observed when, above it and before a Π, γ, γp or
// γm replaces the item with a tree of its own:
//   - an expression reads it below the root: a path ($e//x, a PathCond)
//     or the whole variable ($e in a return, a template or a comparison);
//     an attribute ($e.callId), a join key or a group's key and value
//     attributes read the root only;
//   - a δ compares whole items;
//   - the publisher, or the root of a plan without one, emits it.
//
// The marks are a function of the plan's shape alone; marking again
// gives the same marks.
func MarkBodyReaders(plan *Node) *Node {
	markBody(plan, allExposed)
	return plan
}

// exposure has bit i set when the plan above a node observes the node's
// i-th output variable (by position in its Schema) below the root. A
// variable past the 64th counts as observed.
type exposure uint64

const allExposed = ^exposure(0)

func (e exposure) at(i int) bool { return i >= 64 || e&(1<<i) != 0 }

// markBody marks the alerters below n, given what the plan above n
// observes of its output.
func markBody(n *Node, exposed exposure) {
	switch n.Op {
	case OpAlerter, OpDynAlerter:
		if n.Op == OpDynAlerter || n.Alerter.Kind == "ws-in" || n.Alerter.Kind == "ws-out" {
			n.Body = BodyUnread
			if exposed.at(0) {
				n.Body = BodyRead
			}
		}
		for _, in := range n.Inputs { // a dynamic set's manager reads its driver's text
			markBody(in, allExposed)
		}
		return
	}
	off := 0
	for _, in := range n.Inputs {
		var child exposure
		for j, v := range in.Schema {
			if j < 64 && (passesBody(n, exposed, off+j) || readsBody(n, v)) {
				child |= 1 << j
			}
		}
		if n.Op == OpJoin {
			off += len(in.Schema) // a join's schema is its inputs' in order
		}
		markBody(in, child)
	}
}

// passesBody reports whether n hands its input's i-th variable (counted
// across inputs for a join) upward with its subtree where something
// observes it.
func passesBody(n *Node, exposed exposure, i int) bool {
	switch n.Op {
	case OpRestruct, OpGroup, OpPartialAgg, OpMergeAgg:
		return false // the output is a tree of the operator's own
	case OpSelect, OpUnion, OpJoin:
		return exposed.at(i)
	}
	return true // δ, the publisher, anything else: the whole item counts
}

// readsBody reports whether n's own expressions read v below the root.
// Every LET of the node counts, used or not: one that fails to evaluate
// can drop the item.
func readsBody(n *Node, v string) bool {
	var conds []p2pml.Condition
	var lets []p2pml.LetBinding
	switch n.Op {
	case OpSelect:
		conds, lets = n.Select.Conds, n.Select.Lets
	case OpJoin:
		if exprReads(n.Join.LeftKey, v) || exprReads(n.Join.RightKey, v) {
			return true
		}
		conds, lets = n.Join.Residual, n.Join.Lets
	case OpRestruct:
		if exprReads(n.Restruct.Expr, v) {
			return true
		}
		for _, e := range n.Restruct.Template.Exprs() {
			if exprReads(e, v) {
				return true
			}
		}
		lets = n.Restruct.Lets
	}
	for _, c := range conds {
		if cmp, ok := c.(*p2pml.CmpCond); ok {
			if exprReads(cmp.Left, v) || exprReads(cmp.Right, v) {
				return true
			}
		} else if c.(*p2pml.PathCond).Var == v { // the only other kind
			return true
		}
	}
	for _, l := range lets {
		if exprReads(l.Expr, v) {
			return true
		}
	}
	return false
}

// exprReads reports whether e reads v below the root: a path, or the
// whole variable. An attribute reads the root only.
func exprReads(e p2pml.Expr, v string) bool {
	switch e := e.(type) {
	case nil, *p2pml.AttrRef, *p2pml.Lit:
		return false
	case *p2pml.Binary:
		return exprReads(e.L, v) || exprReads(e.R, v)
	case *p2pml.PathRef:
		return e.Var == v
	case *p2pml.VarRef:
		return e.Var == v
	}
	return slices.Contains(e.Vars(), v)
}
