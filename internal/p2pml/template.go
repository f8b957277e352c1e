package p2pml

import (
	"fmt"
	"strings"

	"p2pm/internal/xmltree"
)

// Template is a compiled RETURN-clause XML template: literal XML with
// curly-brace-guarded expressions "evaluated at runtime" (Section 2), as
// in
//
//	<incident type="slowAnswer">
//	  <client>{$c1.caller}</client>
//	  <tstamp>{$c2.callTimestamp}</tstamp>
//	</incident>
type Template struct {
	src   string
	root  *tplNode
	vars  []string
	exprs []Expr
	// What one instance takes of an xmltree.Builder, spliced trees aside.
	nodes, attrs int
}

type tplNode struct {
	label    string
	attrs    []tplAttr
	children []*tplNode
	segs     []segment // for text nodes
}

type tplAttr struct {
	name string
	segs []segment
}

type segment struct {
	lit  string
	expr Expr
}

// CompileTemplate compiles the template from its XML source. Expressions
// inside {...} use the P2PML expression grammar.
func CompileTemplate(src string) (*Template, error) {
	tree, err := xmltree.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("p2pml: template is not well-formed XML: %w", err)
	}
	t := &Template{src: src}
	root, err := t.compile(tree)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

func (t *Template) compile(n *xmltree.Node) (*tplNode, error) {
	t.nodes, t.attrs = t.nodes+1, t.attrs+len(n.Attrs)
	if n.IsText() {
		segs, err := parseSegments(n.Text)
		if err != nil {
			return nil, err
		}
		t.collectVars(segs)
		return &tplNode{segs: segs}, nil
	}
	out := &tplNode{label: n.Label}
	for _, a := range n.Attrs {
		segs, err := parseSegments(a.Value)
		if err != nil {
			return nil, err
		}
		t.collectVars(segs)
		out.attrs = append(out.attrs, tplAttr{name: a.Name, segs: segs})
	}
	for _, c := range n.Children {
		cc, err := t.compile(c)
		if err != nil {
			return nil, err
		}
		out.children = append(out.children, cc)
	}
	return out, nil
}

func (t *Template) collectVars(segs []segment) {
	for _, s := range segs {
		if s.expr != nil {
			t.vars = append(t.vars, s.expr.Vars()...)
			t.exprs = append(t.exprs, s.expr)
		}
	}
}

// Vars returns the variables referenced anywhere in the template; a nil
// template references none.
func (t *Template) Vars() []string {
	if t == nil {
		return nil
	}
	return t.vars
}

// Exprs returns the template's {…} expressions in document order; a nil
// template has none.
func (t *Template) Exprs() []Expr {
	if t == nil {
		return nil
	}
	return t.exprs
}

// String returns the template source.
func (t *Template) String() string { return t.src }

// SplicesVar reports whether some text position is exactly one bare
// variable ({$e}), which splices that variable's whole tree into every
// instance: the output is then no smaller than the input it copies.
func (t *Template) SplicesVar() bool { return t.root.splicesVar() }

func (n *tplNode) splicesVar() bool {
	if n.label == "" {
		if len(n.segs) != 1 {
			return false
		}
		_, bare := n.segs[0].expr.(*VarRef)
		return bare
	}
	for _, c := range n.children {
		if c.splicesVar() {
			return true
		}
	}
	return false
}

// parseSegments splits "ab{expr}cd" into literal and expression segments.
func parseSegments(s string) ([]segment, error) {
	var segs []segment
	for len(s) > 0 {
		open := strings.IndexByte(s, '{')
		if open < 0 {
			segs = append(segs, segment{lit: s})
			break
		}
		if open > 0 {
			segs = append(segs, segment{lit: s[:open]})
		}
		close := strings.IndexByte(s[open:], '}')
		if close < 0 {
			return nil, fmt.Errorf("p2pml: unterminated '{' in template segment %q", s)
		}
		exprSrc := s[open+1 : open+close]
		expr, err := ParseExpr(exprSrc)
		if err != nil {
			return nil, fmt.Errorf("p2pml: bad template expression {%s}: %w", exprSrc, err)
		}
		segs = append(segs, segment{expr: expr})
		s = s[open+close+1:]
	}
	return segs, nil
}

// Instantiate evaluates the template under an environment and returns the
// output tree. An expression evaluating to a whole tree (a bare stream
// variable) is spliced as a subtree when it is the only content of a text
// position; elsewhere its text content is used.
func (t *Template) Instantiate(env *Env) (*xmltree.Node, error) {
	b := xmltree.NewBuilder(t.nodes, t.attrs)
	return instantiate(t.root, env, &b)
}

func instantiate(n *tplNode, env *Env, b *xmltree.Builder) (*xmltree.Node, error) {
	if n.label == "" {
		// Text position: single tree-valued expression splices.
		if len(n.segs) == 1 && n.segs[0].expr != nil {
			v, err := n.segs[0].expr.Eval(env)
			if err != nil {
				return nil, err
			}
			if v.Node != nil {
				return v.Node.Clone(), nil
			}
			return b.Text(v.Text()), nil
		}
		s, err := renderSegments(n.segs, env)
		if err != nil {
			return nil, err
		}
		return b.Text(s), nil
	}
	out := b.Elem(n.label, len(n.attrs), len(n.children))
	for _, a := range n.attrs {
		s, err := renderSegments(a.segs, env)
		if err != nil {
			return nil, err
		}
		out.SetAttr(a.name, s)
	}
	for _, c := range n.children {
		node, err := instantiate(c, env, b)
		if err != nil {
			return nil, err
		}
		out.Append(node)
	}
	return out, nil
}

// renderSegments renders a text or attribute position. A position that
// is one literal or one expression shares that string — for an attribute
// copied from the input, the input's own bytes — and only a mix of
// segments builds a new one (in one allocation, up to 64 bytes).
func renderSegments(segs []segment, env *Env) (string, error) {
	var buf [64]byte
	out := buf[:0]
	for _, s := range segs {
		text := s.lit
		if s.expr != nil {
			v, err := s.expr.Eval(env)
			if err != nil {
				return "", err
			}
			text = v.Text()
		}
		if len(segs) == 1 {
			return text, nil
		}
		out = append(out, text...)
	}
	return string(out), nil
}
