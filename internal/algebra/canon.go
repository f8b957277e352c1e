package algebra

import (
	"slices"
	"sort"
	"strings"

	"p2pm/internal/p2pml"
	"p2pm/internal/xmltree"
)

// This file decides how a condition or an expression reads in a stream's
// identity: signatures and subsumption both render through it. It walks
// the p2pml tree, never a rendered text, and
//   - writes each LET variable as its definition, in parentheses, so two
//     specs that name different definitions alike sign apart;
//   - keeps every stream variable's name, or, for subsumption, writes the
//     one stream variable of a single-variable input as $_ (rename), so
//     the name a subscription chose does not matter.
//
// Without LETs and renaming it writes what String writes.

// canonExpr renders e. lets are the bindings visible to it: a LET's own
// definition sees only those declared before it, as EvalLets binds them.
func canonExpr(e p2pml.Expr, lets []p2pml.LetBinding, rename string) string {
	switch x := e.(type) {
	case *p2pml.AttrRef:
		return canonRef(x.Var, x.String(), lets, rename)
	case *p2pml.PathRef:
		return canonRef(x.Var, x.String(), lets, rename)
	case *p2pml.VarRef:
		return canonRef(x.Var, x.String(), lets, rename)
	case *p2pml.Binary:
		return x.Render(canonExpr(x.L, lets, rename), canonExpr(x.R, lets, rename))
	}
	return e.String()
}

// canonRef renders a reference to v whose String is s: "$v" and what
// follows it, an attribute, a path or nothing.
func canonRef(v, s string, lets []p2pml.LetBinding, rename string) string {
	if i := slices.IndexFunc(lets, func(l p2pml.LetBinding) bool { return l.Var == v }); i >= 0 {
		return "(" + canonExpr(lets[i].Expr, lets[:i], rename) + ")" + s[len(v)+1:]
	} else if v == rename {
		return "$_" + s[len(v)+1:]
	}
	return s
}

func canonCond(c p2pml.Condition, lets []p2pml.LetBinding, rename string) string {
	if x, ok := c.(*p2pml.CmpCond); ok {
		return canonExpr(x.Left, lets, rename) + " " + x.Op.String() + " " + canonExpr(x.Right, lets, rename)
	}
	x := c.(*p2pml.PathCond) // the only other kind
	return canonRef(x.Var, x.String(), lets, rename)
}

// signedConds renders conditions for a signature: sorted, so condition
// order does not affect a stream's identity.
func signedConds(conds []p2pml.Condition, lets []p2pml.LetBinding) string {
	parts := make([]string, len(conds))
	for i, c := range conds {
		parts[i] = canonCond(c, lets, "")
	}
	sort.Strings(parts)
	return strings.Join(parts, " and ")
}

// signedArgs renders an alerter's non-<p> arguments, each in canonical
// XML: they select what the alerter watches (an RSS alerter's feed).
func signedArgs(args []*xmltree.Node) string {
	s := ""
	for _, a := range args {
		s += " " + a.Canonical()
	}
	return s
}

// CanonConds renders σ node n's conditions as subsumption compares them:
// each LET inlined and the input's one stream variable written $_. Each
// key maps to a condition that renders to it. ok is false unless n is a
// σ over a single-variable input.
func CanonConds(n *Node) (map[string]p2pml.Condition, bool) {
	if n.Op != OpSelect || len(n.Inputs) != 1 || len(n.Inputs[0].Schema) != 1 {
		return nil, false
	}
	out := make(map[string]p2pml.Condition, len(n.Select.Conds))
	for _, c := range n.Select.Conds {
		out[canonCond(c, n.Select.Lets, n.Inputs[0].Schema[0])] = c
	}
	return out, true
}
