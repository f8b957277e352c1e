package p2pml

import (
	"fmt"
	"strconv"
	"strings"

	"p2pm/internal/xmltree"
	"p2pm/internal/xpath"
)

// Value is the result of evaluating an expression: a string, a number, or
// a whole XML tree (for bare variable references like "return $e"). A
// number computed by arithmetic has no Str: Text renders it, so a number
// that is only compared is never formatted.
type Value struct {
	Str   string
	Num   float64
	IsNum bool
	Node  *xmltree.Node
}

// StringValue builds a string Value, auto-detecting numerics so that
// attribute timestamps participate in arithmetic.
func StringValue(s string) Value {
	if n, ok := xpath.ParseNumber(s); ok {
		return Value{Str: s, Num: n, IsNum: true}
	}
	return Value{Str: s}
}

// Text renders the value for template substitution.
func (v Value) Text() string {
	switch {
	case v.Node != nil:
		return v.Node.InnerText()
	case v.IsNum && v.Str == "":
		var buf [32]byte // what FormatFloat takes, without its scratch allocation
		return string(strconv.AppendFloat(buf[:0], v.Num, 'g', -1, 64))
	}
	return v.Str
}

// Env is the frame one candidate tuple is evaluated in: stream variables
// bound to trees, LET variables to computed values. A subscription has a
// handful of variables, so a frame is one short list searched in order.
// A compiled σ, Π or join key keeps one frame for its operator and
// Resets it per item, so binding an item allocates nothing once the list
// has grown to the tuple's width. Nothing evaluated in a frame refers to
// it: values are strings, numbers and the bound trees themselves.
type Env struct {
	binds []binding
}

type binding struct {
	v      string
	val    Value // a stream variable's is its tree
	stream bool
}

// NewEnv returns an empty frame.
func NewEnv() *Env { return &Env{} }

// Reset unbinds every variable and keeps the frame's storage. It clears
// the old bindings, so a reused frame holds at most one item's trees.
func (e *Env) Reset() {
	clear(e.binds)
	e.binds = e.binds[:0]
}

// Bind binds a stream variable. Variable names are unique in a
// subscription, so a frame binds each at most once between Resets.
func (e *Env) Bind(v string, tree *xmltree.Node) {
	e.binds = append(e.binds, binding{v, Value{Node: tree}, true})
}

func (e *Env) lookup(v string) (binding, bool) {
	for _, b := range e.binds {
		if b.v == v {
			return b, true
		}
	}
	return binding{}, false
}

// Tree returns the tree bound to a stream variable.
func (e *Env) Tree(v string) (*xmltree.Node, bool) {
	b, ok := e.lookup(v)
	return b.val.Node, ok && b.stream
}

// Expr is an evaluable P2PML expression.
type Expr interface {
	Eval(env *Env) (Value, error)
	String() string
	// Vars returns the variables referenced by the expression.
	Vars() []string
}

// AttrRef is the dot notation: $c1.callMethod reads attribute callMethod
// of the root of the tree bound to $c1 — "syntactic sugaring" for the
// XPath condition on root attributes (Section 2).
type AttrRef struct {
	Var  string
	Attr string
}

// Eval implements Expr.
func (a *AttrRef) Eval(env *Env) (Value, error) {
	tree, ok := env.Tree(a.Var)
	if !ok {
		return Value{}, fmt.Errorf("p2pml: unbound variable $%s", a.Var)
	}
	v, ok := tree.Attr(a.Attr)
	if !ok {
		return Value{}, errAttrMissing{a.Var, a.Attr}
	}
	return StringValue(v), nil
}

type errAttrMissing struct{ v, attr string }

func (e errAttrMissing) Error() string {
	return fmt.Sprintf("p2pml: $%s has no root attribute %q", e.v, e.attr)
}

// IsAttrMissing reports whether err is a missing-root-attribute error;
// conditions over absent attributes are false rather than fatal.
func IsAttrMissing(err error) bool {
	_, ok := err.(errAttrMissing)
	return ok
}

func (a *AttrRef) String() string { return "$" + a.Var + "." + a.Attr }

// Vars implements Expr.
func (a *AttrRef) Vars() []string { return []string{a.Var} }

// PathRef extracts a value via a tree pattern: $c1/alert/client.
type PathRef struct {
	Var  string
	Path *xpath.Path
}

// Eval implements Expr.
func (p *PathRef) Eval(env *Env) (Value, error) {
	tree, ok := env.Tree(p.Var)
	if !ok {
		return Value{}, fmt.Errorf("p2pml: unbound variable $%s", p.Var)
	}
	v, ok := evalPathRooted(p.Path, tree)
	if !ok {
		return Value{}, errAttrMissing{p.Var, p.Path.String()}
	}
	return StringValue(v), nil
}

// evalPathRooted evaluates a path against a stream item, treating the
// item's root element as the document root (so $c1/alert matches an item
// whose root is <alert>).
func evalPathRooted(p *xpath.Path, tree *xmltree.Node) (string, bool) {
	if p.Rooted {
		return p.First(tree, nil)
	}
	wrap := xmltree.Elem("#item", tree)
	return p.First(wrap, nil)
}

func (p *PathRef) String() string { return "$" + p.Var + pathSuffix(p.Path) }

// Vars implements Expr.
func (p *PathRef) Vars() []string { return []string{p.Var} }

// VarRef references a variable directly: a LET value, or the whole tree
// for a stream variable.
type VarRef struct {
	Var string
}

// Eval implements Expr.
func (v *VarRef) Eval(env *Env) (Value, error) {
	if b, ok := env.lookup(v.Var); ok {
		return b.val, nil
	}
	return Value{}, fmt.Errorf("p2pml: unbound variable $%s", v.Var)
}

func (v *VarRef) String() string { return "$" + v.Var }

// Vars implements Expr.
func (v *VarRef) Vars() []string { return []string{v.Var} }

// Lit is a literal string or number.
type Lit struct {
	Val Value
}

// Eval implements Expr.
func (l *Lit) Eval(*Env) (Value, error) { return l.Val, nil }

// String writes a number in plain decimal, never with an exponent, which
// the parser does not read.
func (l *Lit) String() string {
	if l.Val.IsNum {
		return strconv.FormatFloat(l.Val.Num, 'f', -1, 64)
	}
	return quote(l.Val.Str)
}

// quote writes s as the parser reads a string: it knows no escapes, so s
// goes in as it is, between double quotes unless it holds one.
func quote(s string) string {
	if strings.Contains(s, `"`) {
		return "'" + s + "'"
	}
	return `"` + s + `"`
}

// Vars implements Expr.
func (l *Lit) Vars() []string { return nil }

// Binary is an arithmetic expression over numbers.
type Binary struct {
	Op   byte // '+', '-', '*', '/'
	L, R Expr
}

// Eval implements Expr.
func (b *Binary) Eval(env *Env) (Value, error) {
	l, err := b.L.Eval(env)
	if err != nil {
		return Value{}, err
	}
	r, err := b.R.Eval(env)
	if err != nil {
		return Value{}, err
	}
	if !l.IsNum || !r.IsNum {
		return Value{}, fmt.Errorf("p2pml: arithmetic %q needs numeric operands (got %q, %q)", string(b.Op), l.Text(), r.Text())
	}
	var n float64
	switch b.Op {
	case '+':
		n = l.Num + r.Num
	case '-':
		n = l.Num - r.Num
	case '*':
		n = l.Num * r.Num
	case '/':
		if r.Num == 0 {
			return Value{}, fmt.Errorf("p2pml: division by zero")
		}
		n = l.Num / r.Num
	default:
		return Value{}, fmt.Errorf("p2pml: unknown operator %q", string(b.Op))
	}
	return Value{Num: n, IsNum: true}, nil
}

func (b *Binary) String() string { return b.Render(b.L.String(), b.R.String()) }

// Render renders b with its operands rendered as l and r, each in
// parentheses where the tree needs them to parse back to b: * and / bind
// tighter than + and -, and all four associate to the left.
func (b *Binary) Render(l, r string) string {
	if prec(b.L) < prec(b) {
		l = "(" + l + ")"
	}
	if prec(b.R) <= prec(b) {
		r = "(" + r + ")"
	}
	return l + " " + string(b.Op) + " " + r
}

// prec ranks + and - 1, * and / 2, and any operand that is no arithmetic
// 3.
func prec(e Expr) int {
	if b, ok := e.(*Binary); ok {
		return strings.IndexByte("+-*/", b.Op)/2 + 1
	}
	return 3
}

// Vars implements Expr.
func (b *Binary) Vars() []string { return append(b.L.Vars(), b.R.Vars()...) }

// EvalCondition evaluates one WHERE conjunct against an environment.
// Conditions referencing absent root attributes are false, not errors.
func EvalCondition(c Condition, env *Env) (bool, error) {
	switch cond := c.(type) {
	case *PathCond:
		tree, ok := env.Tree(cond.Var)
		if !ok {
			return false, fmt.Errorf("p2pml: unbound variable $%s", cond.Var)
		}
		// The boolean form of evalPathRooted: the item's root is the
		// document's only child either way.
		return cond.Path.MatchesDocument(tree, nil), nil
	case *CmpCond:
		l, err := cond.Left.Eval(env)
		if err != nil {
			if IsAttrMissing(err) {
				return false, nil
			}
			return false, err
		}
		r, err := cond.Right.Eval(env)
		if err != nil {
			if IsAttrMissing(err) {
				return false, nil
			}
			return false, err
		}
		if l.IsNum && r.IsNum {
			return xpath.Holds(l.Num, cond.Op, r.Num), nil
		}
		return xpath.Compare(l.Text(), cond.Op, r.Text()), nil
	}
	return false, fmt.Errorf("p2pml: unknown condition type %T", c)
}

// EvalLets computes the LET bindings into the environment, in order.
func EvalLets(lets []LetBinding, env *Env) error {
	for _, l := range lets {
		v, err := l.Expr.Eval(env)
		if err != nil {
			if IsAttrMissing(err) {
				// A LET over a missing attribute leaves the variable
				// unbound; conditions using it will fail to evaluate and
				// the tuple is dropped by the caller.
				continue
			}
			return err
		}
		env.binds = append(env.binds, binding{l.Var, v, false})
	}
	return nil
}
