package algebra

import (
	"fmt"

	"p2pm/internal/p2pml"
	"p2pm/internal/xmltree"
)

// Multi-variable streams carry <tuple> trees: one <bind var="..."> child
// per subscription variable, holding the variable's bound tree. Single
// variable streams carry the alert tree directly, which keeps alerter
// streams in the shape the paper describes (and reusable by other tasks).

// TupleLabel is the root label of tuple items.
const TupleLabel = "tuple"

// BuildTuple wraps trees into a tuple over the given variables.
func BuildTuple(vars []string, trees []*xmltree.Node) *xmltree.Node {
	t := xmltree.Elem(TupleLabel)
	for i, v := range vars {
		bind := xmltree.Elem("bind", trees[i].Clone())
		bind.SetAttr("var", v)
		t.Append(bind)
	}
	return t
}

// MergeTuples joins two items (each possibly a tuple or a bare tree) into
// one tuple over the concatenated schemas.
func MergeTuples(leftSchema []string, left *xmltree.Node, rightSchema []string, right *xmltree.Node) *xmltree.Node {
	t := xmltree.Elem(TupleLabel)
	appendBinds(t, leftSchema, left)
	appendBinds(t, rightSchema, right)
	return t
}

func appendBinds(t *xmltree.Node, schema []string, item *xmltree.Node) {
	if len(schema) == 1 && item.Label != TupleLabel {
		bind := xmltree.Elem("bind", item.Clone())
		bind.SetAttr("var", schema[0])
		t.Append(bind)
		return
	}
	for _, c := range item.Children {
		if c.Label == "bind" {
			t.Append(c.Clone())
		}
	}
}

// bindItem binds the variables of an item with the given schema into
// env: a bare tree to the schema's one variable, a tuple's <bind>
// children to theirs.
func bindItem(env *p2pml.Env, schema []string, item *xmltree.Node) error {
	if len(schema) == 1 && item.Label != TupleLabel {
		env.Bind(schema[0], item)
		return nil
	}
	if item.Label != TupleLabel {
		return fmt.Errorf("algebra: expected tuple item for schema %v, got <%s>", schema, item.Label)
	}
	for _, c := range item.Children {
		if c.Label != "bind" {
			continue
		}
		v, ok := c.Attr("var")
		if !ok || len(c.Children) == 0 {
			return fmt.Errorf("algebra: malformed bind in tuple")
		}
		env.Bind(v, c.Children[0])
	}
	for _, v := range schema {
		if _, ok := env.Tree(v); !ok {
			return fmt.Errorf("algebra: tuple missing variable $%s", v)
		}
	}
	return nil
}
