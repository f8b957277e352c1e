package algebra

import (
	"fmt"

	"p2pm/internal/operators"
	"p2pm/internal/p2pml"
	"p2pm/internal/xmltree"
)

// This file bridges declarative operator specs to the runtime closures
// the operators package executes. The declarative side (specs, signatures)
// is what gets published to the stream-definition database; the closures
// are what actually runs on a peer.
//
// Each closure binds its items into one p2pml.Env frame of its own, reset
// per item, so evaluating a tuple allocates only what the operator emits.
// A closure is therefore not safe for concurrent use: it belongs to one
// operator instance, which its peer's loop steps one item at a time.

// SelectPred compiles a σ spec into an item predicate. Evaluation errors
// (beyond benign missing attributes, which the expression layer already
// maps to false) drop the item.
func SelectPred(inputSchema []string, spec *SelectSpec) func(*xmltree.Node) bool {
	env := p2pml.NewEnv()
	return func(item *xmltree.Node) bool {
		env.Reset()
		if err := bindItem(env, inputSchema, item); err != nil {
			return false
		}
		if err := p2pml.EvalLets(spec.Lets, env); err != nil {
			return false
		}
		for _, cond := range spec.Conds {
			ok, err := p2pml.EvalCondition(cond, env)
			if err != nil || !ok {
				return false
			}
		}
		return true
	}
}

// JoinKeys compiles the equi-join key extractors for the two inputs. A
// join without an equi predicate degrades to a constant key (cross
// product filtered by the residual). Each key evaluates only the LET
// bindings it actually references: the join's residual LETs may span both
// variables, but at key-extraction time only one side is bound.
func JoinKeys(leftSchema, rightSchema []string, spec *JoinSpec) (operators.KeyFunc, operators.KeyFunc) {
	mk := func(schema []string, key p2pml.Expr) operators.KeyFunc {
		if key == nil {
			return func(*xmltree.Node) (string, bool) { return "", true }
		}
		lets := letsUsedBy(spec.Lets, key.Vars())
		env := p2pml.NewEnv()
		return func(item *xmltree.Node) (string, bool) {
			env.Reset()
			if err := bindItem(env, schema, item); err != nil {
				return "", false
			}
			if err := p2pml.EvalLets(lets, env); err != nil {
				return "", false
			}
			v, err := key.Eval(env)
			if err != nil {
				return "", false
			}
			return v.Text(), true
		}
	}
	return mk(leftSchema, spec.LeftKey), mk(rightSchema, spec.RightKey)
}

// letsUsedBy filters lets to those the given variables reference,
// transitively, preserving declaration order.
func letsUsedBy(lets []p2pml.LetBinding, vars []string) []p2pml.LetBinding {
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
	for _, v := range vars {
		mark(v)
	}
	var out []p2pml.LetBinding
	for _, l := range lets {
		if needed[l.Var] {
			out = append(out, l)
		}
	}
	return out
}

// JoinResidual compiles the residual predicate over candidate pairs; nil
// when the spec has no residual conditions.
func JoinResidual(leftSchema, rightSchema []string, spec *JoinSpec) func(l, r *xmltree.Node) bool {
	if len(spec.Residual) == 0 {
		return nil
	}
	env := p2pml.NewEnv()
	return func(l, r *xmltree.Node) bool {
		env.Reset()
		if bindItem(env, leftSchema, l) != nil || bindItem(env, rightSchema, r) != nil {
			return false
		}
		if err := p2pml.EvalLets(spec.Lets, env); err != nil {
			return false
		}
		for _, cond := range spec.Residual {
			ok, err := p2pml.EvalCondition(cond, env)
			if err != nil || !ok {
				return false
			}
		}
		return true
	}
}

// JoinCombine builds the tuple-merging combiner for a join node.
func JoinCombine(leftSchema, rightSchema []string) operators.Combine {
	return func(l, r *xmltree.Node) *xmltree.Node {
		return MergeTuples(leftSchema, l, rightSchema, r)
	}
}

// RestructApply compiles a Π spec into the per-item transformation.
func RestructApply(inputSchema []string, spec *RestructSpec) func(*xmltree.Node) (*xmltree.Node, error) {
	env := p2pml.NewEnv()
	return func(item *xmltree.Node) (*xmltree.Node, error) {
		env.Reset()
		if err := bindItem(env, inputSchema, item); err != nil {
			return nil, err
		}
		if err := p2pml.EvalLets(spec.Lets, env); err != nil {
			return nil, err
		}
		if spec.Expr != nil {
			v, err := spec.Expr.Eval(env)
			if err != nil {
				if p2pml.IsAttrMissing(err) {
					return nil, nil // drop silently, like a false condition
				}
				return nil, err
			}
			if v.Node != nil {
				return v.Node.Clone(), nil
			}
			return xmltree.ElemText("value", v.Text()), nil
		}
		if spec.Template == nil {
			return nil, fmt.Errorf("algebra: Π without template or expression")
		}
		out, err := spec.Template.Instantiate(env)
		if err != nil {
			if p2pml.IsAttrMissing(err) {
				return nil, nil
			}
			return nil, err
		}
		return out, nil
	}
}
