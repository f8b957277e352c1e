// Package xpath implements the tree-pattern query subset P2PM needs:
// child (/) and descendant (//) axes, element name tests and wildcards,
// terminal attribute (@a) and text() steps, and nested predicates with
// existence tests and comparisons against literals or variables.
//
// This covers every query shape that appears in the paper:
//
//	//a//b
//	$c1/alert[@callMethod = "GetTemperature"]     (variable prefix stripped by caller)
//	$item//c/d
//	/Stream[@PeerId = $p1][Operator/inCom]
//	/Stream[Operator/Join][Operands/Operand[@OPeerId=$p1][@OStreamId=$s1]]
//
// Variables ($x) are allowed in the value position of comparisons and are
// resolved at evaluation time through a Bindings map.
package xpath

import (
	"strings"

	"p2pm/internal/xmltree"
)

// Axis selects how a step relates to its context node.
type Axis int

const (
	// Child matches direct children ("/step").
	Child Axis = iota
	// Descendant matches any descendant ("//step").
	Descendant
)

func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// NodeKind is the kind of node a step selects.
type NodeKind int

const (
	// ElementKind selects element nodes by label (or "*").
	ElementKind NodeKind = iota
	// AttrKind selects an attribute of the context element ("@name").
	AttrKind
	// TextKind selects the text content of the context element ("text()").
	TextKind
)

// CmpOp is a comparison operator inside a predicate, or OpExists for bare
// existence predicates like [Operator/inCom].
type CmpOp int

// The comparison operators of the condition language.
const (
	OpExists CmpOp = iota
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String writes the operator as LexOp reads it: "" for OpExists, "!="
// for OpNe.
func (o CmpOp) String() string {
	for _, c := range cmpTokens {
		if c.op == o {
			return c.tok
		}
	}
	return ""
}

// Value is the right-hand side of a comparison: a literal string, a number
// or a variable reference.
type Value struct {
	Var string // non-empty for $var references
	// Literal is a string literal's content, or a number's canonical
	// text (FormatNumber of Num), which the comparison reads.
	Literal string
	Num     float64
	IsNum   bool
}

func (v Value) String() string {
	switch {
	case v.Var != "":
		return "$" + v.Var
	case v.IsNum:
		return v.Literal
	}
	return Quote(v.Literal)
}

// Bindings resolves variables referenced in comparisons.
type Bindings map[string]string

// Pred is a predicate attached to a step: a relative path, optionally
// compared against a value. With Op == OpExists the predicate holds if the
// path selects at least one node.
type Pred struct {
	Path  *Path
	Op    CmpOp
	Value Value
}

func (p Pred) String() string {
	if p.Op == OpExists {
		return "[" + p.Path.relString() + "]"
	}
	return "[" + p.Path.relString() + " " + p.Op.String() + " " + p.Value.String() + "]"
}

// Step is one location step.
type Step struct {
	Axis  Axis
	Kind  NodeKind
	Label string // element name, attribute name, or "*"
	Preds []Pred
}

func (s Step) test() string {
	switch s.Kind {
	case AttrKind:
		return "@" + s.Label
	case TextKind:
		return "text()"
	default:
		return s.Label
	}
}

// Path is a compiled tree-pattern query.
type Path struct {
	// Rooted paths ("/Stream/...") are evaluated from the document root;
	// relative paths are evaluated from a context node's children.
	Rooted bool
	Steps  []Step
	src    string
}

// String returns the query in source form.
func (p *Path) String() string {
	if p.src != "" {
		return p.src
	}
	return p.relString()
}

func (p *Path) relString() string {
	var b strings.Builder
	for i, s := range p.Steps {
		if i == 0 && !p.Rooted && s.Axis == Child {
			// relative child step has no leading slash
		} else {
			b.WriteString(s.Axis.String())
		}
		b.WriteString(s.test())
		for _, pr := range s.Preds {
			b.WriteString(pr.String())
		}
	}
	return b.String()
}

// IsLinear reports whether the path is a linear path query in the YFilter
// sense: element steps only, no predicates except on the final element
// step. YFilter builds its NFA from the step skeleton and checks final-step
// predicates at accepting states. A trailing @attr or text() step is fine:
// it acts as a final-state predicate on the last element step.
func (p *Path) IsLinear() bool {
	lastElem := -1
	for i, s := range p.Steps {
		if s.Kind == ElementKind {
			lastElem = i
		}
	}
	for i, s := range p.Steps {
		if s.Kind != ElementKind {
			if i != len(p.Steps)-1 {
				return false
			}
			continue
		}
		if len(s.Preds) > 0 && i != lastElem {
			return false
		}
	}
	return true
}

// Matches reports whether the query selects at least one node under root.
func (p *Path) Matches(root *xmltree.Node, binds Bindings) bool {
	if p.Rooted {
		return p.MatchesDocument(root, binds)
	}
	if root == nil || len(p.Steps) == 0 {
		return false
	}
	return p.exists(root, root.Children, 0, binds)
}

// MatchesDocument reports whether the query selects at least one node
// when evaluated from the virtual document node above root, whether or
// not it was written rooted: /a and a test the root element, //a any
// element. This is how the stream filter reads its tree patterns.
func (p *Path) MatchesDocument(root *xmltree.Node, binds Bindings) bool {
	if root == nil || len(p.Steps) == 0 {
		return false
	}
	top := [1]*xmltree.Node{root}
	return p.exists(nil, top[:], 0, binds)
}

// exists reports whether Steps[i:] select anything from a context node
// with the given children; ctx is nil for the virtual document node. It
// decides what eval decides by emitting, without building the wrapper
// node and callbacks that enumeration needs.
func (p *Path) exists(ctx *xmltree.Node, children []*xmltree.Node, i int, binds Bindings) bool {
	step := &p.Steps[i]
	switch step.Kind {
	case AttrKind:
		if ctx == nil {
			return false
		}
		_, ok := ctx.Attr(step.Label)
		return ok
	case TextKind:
		return true
	}
	for _, c := range children {
		if c.IsText() {
			continue
		}
		if (step.Label == "*" || c.Label == step.Label) && PredsHold(c, step.Preds, binds) &&
			(i == len(p.Steps)-1 || p.exists(c, c.Children, i+1, binds)) {
			return true
		}
		if step.Axis == Descendant && p.exists(c, c.Children, i, binds) {
			return true
		}
	}
	return false
}

// SelectNodes returns the element nodes selected by the query, in document
// order. Terminal @attr/text() steps select their owner element.
func (p *Path) SelectNodes(root *xmltree.Node, binds Bindings) []*xmltree.Node {
	var out []*xmltree.Node
	p.eval(root, binds, func(n *xmltree.Node, _ string) bool {
		out = append(out, n)
		return true
	})
	return out
}

// Values returns the string values selected by the query: attribute values
// for terminal @attr steps, text content otherwise.
func (p *Path) Values(root *xmltree.Node, binds Bindings) []string {
	var out []string
	p.eval(root, binds, func(_ *xmltree.Node, v string) bool {
		out = append(out, v)
		return true
	})
	return out
}

// First returns the first selected value and whether any node matched.
func (p *Path) First(root *xmltree.Node, binds Bindings) (string, bool) {
	var val string
	ok := false
	p.eval(root, binds, func(_ *xmltree.Node, v string) bool {
		val, ok = v, true
		return false
	})
	return val, ok
}

// eval walks the tree; emit receives (owner element, string value) for each
// match and returns false to stop the evaluation early.
func (p *Path) eval(root *xmltree.Node, binds Bindings, emit func(*xmltree.Node, string) bool) {
	if root == nil || len(p.Steps) == 0 {
		return
	}
	// Rooted evaluation treats root as the single child of a virtual
	// document node, which gives /label and //label standard semantics.
	doc := &xmltree.Node{Label: "#doc", Children: []*xmltree.Node{root}}
	ctx := root
	if p.Rooted {
		ctx = doc
	}
	p.evalSteps(ctx, 0, binds, emit)
}

// evalSteps evaluates Steps[i:] against the children/descendants of ctx.
// It returns false if emit requested an early stop.
func (p *Path) evalSteps(ctx *xmltree.Node, i int, binds Bindings, emit func(*xmltree.Node, string) bool) bool {
	step := p.Steps[i]
	switch step.Kind {
	case AttrKind:
		// Attribute of the context element (the node matched by the
		// previous step).
		if v, ok := ctx.Attr(step.Label); ok {
			return emit(ctx, v)
		}
		return true
	case TextKind:
		return emit(ctx, ctx.InnerText())
	}
	cont := true
	var visit func(n *xmltree.Node, depth int)
	visit = func(n *xmltree.Node, depth int) {
		if !cont {
			return
		}
		for _, c := range n.Children {
			if !cont {
				return
			}
			if !c.IsText() && (step.Label == "*" || c.Label == step.Label) && p.predsHold(c, step.Preds, binds) {
				if i == len(p.Steps)-1 {
					if !emit(c, c.InnerText()) {
						cont = false
						return
					}
				} else if !p.evalSteps(c, i+1, binds, emit) {
					cont = false
					return
				}
			}
			if step.Axis == Descendant && !c.IsText() {
				visit(c, depth+1)
			}
		}
	}
	visit(ctx, 0)
	return cont
}

func (p *Path) predsHold(n *xmltree.Node, preds []Pred, binds Bindings) bool {
	return PredsHold(n, preds, binds)
}

// PredsHold reports whether all predicates hold at context node n. The
// filter's YFilter stage uses it to check final-step predicates at
// accepting states.
func PredsHold(n *xmltree.Node, preds []Pred, binds Bindings) bool {
	for _, pr := range preds {
		if !predHolds(n, pr, binds) {
			return false
		}
	}
	return true
}

func predHolds(n *xmltree.Node, pr Pred, binds Bindings) bool {
	if pr.Op == OpExists {
		return pr.Path.Matches(n, binds)
	}
	want, ok := pr.Value.resolve(binds)
	if !ok {
		return false
	}
	// [@attr op value], the shape nearly every predicate has, reads the
	// one attribute instead of collecting a value list.
	if p := pr.Path; !p.Rooted && len(p.Steps) == 1 && p.Steps[0].Kind == AttrKind {
		got, ok := n.Attr(p.Steps[0].Label)
		return ok && Compare(got, pr.Op, want)
	}
	vals := pr.Path.Values(n, binds)
	for _, got := range vals {
		if Compare(got, pr.Op, want) {
			return true
		}
	}
	return false
}

func (v Value) resolve(binds Bindings) (string, bool) {
	if v.Var != "" {
		got, ok := binds[v.Var]
		return got, ok
	}
	return v.Literal, true
}

// Holds applies op between two operands of one kind. Floats compare with
// the IEEE operators, so NaN equals nothing and orders with nothing.
func Holds[T float64 | string](a T, op CmpOp, b T) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	}
	return false
}

// Compare applies op between two string values, numerically when both
// parse as numbers (the paper's conditions mix integers and strings) and
// on the raw strings otherwise.
func Compare(got string, op CmpOp, want string) bool {
	if gn, ok := ParseNumber(got); ok {
		if wn, ok := ParseNumber(want); ok {
			return Holds(gn, op, wn)
		}
	}
	return Holds(got, op, want)
}
