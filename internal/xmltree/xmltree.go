// Package xmltree provides the XML tree model that underlies every stream
// item in P2PM. Alerters emit trees, stream processors transform trees and
// channels transport trees; the monitoring algebra of the paper is an
// algebra over sequences of these values.
//
// The model is deliberately small: ordered elements with ordered attributes
// and text leaves. Namespaces are carried verbatim in labels ("soap:Envelope")
// as the paper's examples do; no URI resolution is performed.
package xmltree

import (
	"fmt"
	"sort"
	"strings"
)

// Attr is a single attribute of an element. Attribute order is preserved
// because the serialized form (and hence measured transfer size) depends
// on it.
type Attr struct {
	Name  string
	Value string
}

// Node is a node of an XML tree: either an element (Label != "") or a text
// node (Label == "", Text holds the content). The zero value is an empty
// text node.
type Node struct {
	Label    string
	Text     string
	Attrs    []Attr
	Children []*Node
}

// Elem constructs an element node.
func Elem(label string, children ...*Node) *Node {
	return &Node{Label: label, Children: children}
}

// Text constructs a text node.
func Text(s string) *Node { return &Node{Text: s} }

// ElemText constructs an element with a single text child, a very common
// shape in alerts (<client>a.com</client>).
func ElemText(label, text string) *Node {
	return &Node{Label: label, Children: []*Node{Text(text)}}
}

// IsText reports whether n is a text node.
func (n *Node) IsText() bool { return n.Label == "" }

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrOr returns the named attribute or def when absent.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// SetAttr sets (or replaces) an attribute and returns n for chaining.
func (n *Node) SetAttr(name, value string) *Node {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs[i].Value = value
			return n
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
	return n
}

// RemoveAttr deletes an attribute if present.
func (n *Node) RemoveAttr(name string) {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs = append(n.Attrs[:i], n.Attrs[i+1:]...)
			return
		}
	}
}

// Append adds children and returns n for chaining.
func (n *Node) Append(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// Child returns the first child element with the given label, or nil.
func (n *Node) Child(label string) *Node {
	for _, c := range n.Children {
		if c.Label == label {
			return c
		}
	}
	return nil
}

// ChildrenByLabel returns all child elements with the given label.
func (n *Node) ChildrenByLabel(label string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Label == label {
			out = append(out, c)
		}
	}
	return out
}

// InnerText returns the concatenation of all text beneath n, in document
// order. Text held by one node — n itself, or n's only child — is that
// node's string, shared rather than copied.
func (n *Node) InnerText() string {
	switch {
	case n.IsText():
		return n.Text
	case len(n.Children) == 1 && n.Children[0].IsText():
		return n.Children[0].Text
	}
	var b strings.Builder
	n.innerText(&b)
	return b.String()
}

func (n *Node) innerText(b *strings.Builder) {
	if n.IsText() {
		b.WriteString(n.Text)
		return
	}
	for _, c := range n.Children {
		c.innerText(b)
	}
}

// Clone returns a deep copy of the tree rooted at n, carved from chunks
// of exactly its size.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	b := NewBuilder(n.Count())
	return b.Clone(n)
}

// Count returns the numbers of nodes (elements and text) and of
// attributes in the tree: what a Builder holding a copy must be sized to.
func (n *Node) Count() (nodes, attrs int) {
	if n == nil {
		return 0, 0
	}
	nodes, attrs = 1, len(n.Attrs)
	for _, c := range n.Children {
		cn, ca := c.Count()
		nodes, attrs = nodes+cn, attrs+ca
	}
	return nodes, attrs
}

// Equal reports deep structural equality, including attribute order.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Label != b.Label || a.Text != b.Text ||
		len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// Walk visits every node of the tree in document order. Returning false
// from fn prunes the subtree below the visited node.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil {
		return
	}
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// CountNodes returns the number of nodes in the tree (elements and text).
func (n *Node) CountNodes() int {
	nodes, _ := n.Count()
	return nodes
}

// Canonical returns a canonical serialization of the tree in which
// attributes are sorted by name and insignificant whitespace-only text
// nodes are dropped. Two trees considered "similar" by the paper's
// Duplicate-removal operator canonicalize to the same string.
func (n *Node) Canonical() string {
	var b strings.Builder
	canonical(n, &b)
	return b.String()
}

func canonical(n *Node, b *strings.Builder) {
	if n.IsText() {
		if strings.TrimSpace(n.Text) == "" {
			return
		}
		escapeText(b, n.Text)
		return
	}
	b.WriteByte('<')
	b.WriteString(n.Label)
	if len(n.Attrs) > 0 {
		attrs := make([]Attr, len(n.Attrs))
		copy(attrs, n.Attrs)
		sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
		for _, a := range attrs {
			b.WriteByte(' ')
			b.WriteString(a.Name)
			b.WriteString(`="`)
			escapeAttr(b, a.Value)
			b.WriteByte('"')
		}
	}
	b.WriteByte('>')
	for _, c := range n.Children {
		canonical(c, b)
	}
	b.WriteString("</")
	b.WriteString(n.Label)
	b.WriteByte('>')
}

// String returns the serialized XML form of the tree.
func (n *Node) String() string {
	var b strings.Builder
	b.Grow(n.SerializedSize())
	serialize(n, &b)
	return b.String()
}

// GoString implements fmt.GoStringer for debugging output in tests.
func (n *Node) GoString() string { return fmt.Sprintf("xmltree.Node(%s)", n.String()) }
