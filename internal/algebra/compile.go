package algebra

import (
	"fmt"

	"p2pm/internal/p2pml"
	"p2pm/internal/stream"
	"p2pm/internal/xpath"
)

// Compile translates a parsed subscription into a *naive* monitoring
// plan, mirroring the first processing step of Figure 3: sources feed a
// left-deep join tree, every non-join condition sits in a single σ on
// top, then Π (and Distinct), then the publisher. All processors are
// generic (@any); Optimize pushes selections down and assigns peers.
func Compile(sub *p2pml.Subscription) (*Node, error) {
	c := &compiler{sub: sub, letByVar: make(map[string]p2pml.LetBinding)}
	for _, l := range sub.Let {
		c.letByVar[l.Var] = l
	}
	return c.compile()
}

type compiler struct {
	sub      *p2pml.Subscription
	letByVar map[string]p2pml.LetBinding
}

// streamVarsOf expands LET variables to the underlying stream variables.
func (c *compiler) streamVarsOf(vars []string) []string {
	seen := make(map[string]bool)
	var out []string
	var expand func(v string)
	expand = func(v string) {
		if l, isLet := c.letByVar[v]; isLet {
			for _, inner := range l.Expr.Vars() {
				expand(inner)
			}
			return
		}
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, v := range vars {
		expand(v)
	}
	return out
}

// letsFor returns the LET bindings (in declaration order) that conditions
// and expressions need, transitively.
func (c *compiler) letsFor(conds []p2pml.Condition, uses ...interface{ Vars() []string }) []p2pml.LetBinding {
	var vars []string
	for _, cond := range conds {
		vars = append(vars, cond.Vars()...)
	}
	for _, u := range uses {
		if u != nil {
			vars = append(vars, u.Vars()...)
		}
	}
	return letsUsedBy(c.sub.Let, vars)
}

func (c *compiler) compile() (*Node, error) {
	// Variables consumed as dynamic-membership drivers (inCOM($j)) feed
	// their consumer's alerter set; they are not joinable streams.
	drivers := make(map[string]bool)
	for _, f := range c.sub.For {
		if as, ok := f.Source.(*p2pml.AlerterSource); ok && as.StreamVar != "" {
			drivers[as.StreamVar] = true
		}
	}
	for _, cond := range c.sub.Where {
		for _, v := range c.streamVarsOf(cond.Vars()) {
			if drivers[v] {
				return nil, fmt.Errorf("algebra: $%s drives a dynamic alerter and cannot appear in WHERE", v)
			}
		}
	}

	// 1. One source plan per FOR binding.
	sources := make(map[string]*Node)
	var order []string
	for _, f := range c.sub.For {
		if drivers[f.Var] {
			continue // compiled inside its consumer's DynAlerter
		}
		src, err := c.compileSource(f)
		if err != nil {
			return nil, err
		}
		sources[f.Var] = src
		order = append(order, f.Var)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("algebra: subscription has no stream sources")
	}

	// 2. Classify WHERE conditions.
	type joinEdge struct {
		a, b string
		cond p2pml.Condition
	}
	var singles []p2pml.Condition
	var edges []joinEdge
	var global []p2pml.Condition
	for _, cond := range c.sub.Where {
		vars := c.streamVarsOf(cond.Vars())
		switch len(vars) {
		case 0:
			global = append(global, cond)
		case 1:
			singles = append(singles, cond)
		case 2:
			edges = append(edges, joinEdge{a: vars[0], b: vars[1], cond: cond})
		default:
			global = append(global, cond)
		}
	}

	// 3. Left-deep join tree in FOR order.
	plan := sources[order[0]]
	joined := map[string]bool{order[0]: true}
	for _, v := range order[1:] {
		right := sources[v]
		spec := &JoinSpec{}
		var rest []joinEdge
		for _, e := range edges {
			spans := (joined[e.a] && e.b == v) || (joined[e.b] && e.a == v)
			if !spans {
				rest = append(rest, e)
				continue
			}
			if spec.LeftKey == nil {
				if lk, rk, ok := equiKeys(e.cond, joined, v, c); ok {
					spec.LeftKey, spec.RightKey = lk, rk
					continue
				}
			}
			spec.Residual = append(spec.Residual, e.cond)
		}
		edges = rest
		spec.Lets = c.letsFor(spec.Residual, spec.LeftKey, spec.RightKey)
		plan = &Node{
			Op: OpJoin, Peer: AnyPeer,
			Inputs: []*Node{plan, right},
			Schema: append(append([]string(nil), plan.Schema...), right.Schema...),
			Join:   spec,
		}
		joined[v] = true
	}
	// Unplaced edges (conditions spanning vars not adjacent in the tree)
	// and global conditions join the single-variable ones in the top σ.
	for _, e := range edges {
		global = append(global, e.cond)
	}
	topConds := append(append([]p2pml.Condition(nil), singles...), global...)
	if len(topConds) > 0 {
		plan = &Node{
			Op: OpSelect, Peer: AnyPeer,
			Inputs: []*Node{plan},
			Schema: plan.Schema,
			Select: &SelectSpec{Conds: topConds, Lets: c.letsFor(topConds)},
		}
	}

	// 4. Π from the RETURN clause.
	ret := c.sub.Return
	plan = &Node{
		Op: OpRestruct, Peer: AnyPeer,
		Inputs:   []*Node{plan},
		Restruct: &RestructSpec{Template: ret.Template, Expr: ret.Expr, Lets: c.letsFor(nil, ret.Expr, ret.Template)},
	}
	if ret.Distinct {
		plan = &Node{Op: OpDistinct, Peer: AnyPeer, Inputs: []*Node{plan}}
	}
	// 4b. γ from the extension GROUP clause: windowed counts over the
	// output stream.
	if g := c.sub.Group; g != nil {
		plan = &Node{
			Op: OpGroup, Peer: AnyPeer,
			Inputs: []*Node{plan},
			Group:  &GroupSpec{KeyAttr: g.Attr, Window: g.Window, Fn: g.Fn, ValueAttr: g.ValueAttr},
		}
	}

	// 5. Publisher from the BY clause.
	return NewPublisher(c.sub.By, plan, AnyPeer), nil
}

// NewPublisher builds the publisher of a subscription's BY targets over
// in, at peer. Its result channel is the first one BY names, "result1"
// when it names none.
func NewPublisher(by []p2pml.ByTarget, in *Node, peer string) *Node {
	pub := &PublishSpec{Targets: by, ChannelID: "result1"}
	for _, t := range by {
		if t.Kind == p2pml.ByPublishChannel || t.Kind == p2pml.ByChannel {
			pub.ChannelID = t.Name
			break
		}
	}
	return &Node{Op: OpPublish, Peer: peer, Inputs: []*Node{in}, Publish: pub}
}

func (c *compiler) compileSource(f p2pml.ForBinding) (*Node, error) {
	switch src := f.Source.(type) {
	case *p2pml.AlerterSource:
		kind := p2pml.AlerterFuncs[src.Func]
		if src.StreamVar != "" {
			// Dynamic membership: the driver variable's source feeds a
			// DynAlerter that manages one alerter per joined peer.
			driver, err := c.compileSource(c.findBinding(src.StreamVar))
			if err != nil {
				return nil, err
			}
			return &Node{
				Op: OpDynAlerter, Peer: AnyPeer,
				Inputs:  []*Node{driver},
				Schema:  []string{f.Var},
				Alerter: &AlerterSpec{Func: src.Func, Kind: kind, Args: src.Args},
			}, nil
		}
		nodes := make([]*Node, 0, len(src.Peers))
		for _, peer := range src.Peers {
			nodes = append(nodes, NewAlerter(src.Func, kind, peer, f.Var, src.Args))
		}
		if len(nodes) == 1 {
			return nodes[0], nil
		}
		return &Node{Op: OpUnion, Peer: AnyPeer, Inputs: nodes, Schema: []string{f.Var}}, nil
	case *p2pml.NestedSource:
		inner, err := Compile(src.Sub)
		if err != nil {
			return nil, err
		}
		// Drop the inner publisher: the nested stream feeds the outer
		// plan directly. The inner plan's Π output trees bind to the
		// outer variable; inner nodes keep their own inner schemas.
		body := inner.Inputs[0]
		body.Schema = []string{f.Var}
		return body, nil
	case *p2pml.ChannelSource:
		ref, err := stream.ParseRef(src.Ref)
		if err != nil {
			return nil, err
		}
		return &Node{Op: OpChannelIn, Peer: ref.PeerID, Schema: []string{f.Var}, Channel: ref}, nil
	}
	return nil, fmt.Errorf("algebra: unsupported source %T", f.Source)
}

func (c *compiler) findBinding(v string) p2pml.ForBinding {
	for _, f := range c.sub.For {
		if f.Var == v {
			return f
		}
	}
	return p2pml.ForBinding{}
}

// equiKeys recognizes an equi-join condition "exprA = exprB" where one
// side references only already-joined variables and the other only the
// new variable; it returns (leftKey, rightKey).
func equiKeys(cond p2pml.Condition, joined map[string]bool, newVar string, c *compiler) (p2pml.Expr, p2pml.Expr, bool) {
	cmp, ok := cond.(*p2pml.CmpCond)
	if !ok || cmp.Op != xpath.OpEq {
		return nil, nil, false
	}
	lv := c.streamVarsOf(cmp.Left.Vars())
	rv := c.streamVarsOf(cmp.Right.Vars())
	onlyJoined := func(vs []string) bool {
		for _, v := range vs {
			if !joined[v] {
				return false
			}
		}
		return len(vs) > 0
	}
	onlyNew := func(vs []string) bool {
		return len(vs) == 1 && vs[0] == newVar
	}
	switch {
	case onlyJoined(lv) && onlyNew(rv):
		return cmp.Left, cmp.Right, true
	case onlyJoined(rv) && onlyNew(lv):
		return cmp.Right, cmp.Left, true
	}
	return nil, nil, false
}
