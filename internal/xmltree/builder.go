package xmltree

// Builder carves the nodes, attribute lists and child lists of one tree
// from three chunks instead of allocating each on its own. Every list it
// hands out has cap == len of its reservation, so a later SetAttr or
// Append beyond it copies the list instead of overwriting a neighbour's.
// A chunk that runs out is replaced, never grown: nodes already handed
// out do not move. A retained node keeps its builder's chunks — one
// tree's worth — reachable, nothing else. The zero value is ready to use.
// A Builder that parses again reuses its chunks (see Parse).
type Builder struct {
	nodes []Node
	attrs []Attr
	kids  []*Node
}

// Chunks that replace an exhausted one; each is an exact Go size class
// (1280, 512 and 256 bytes).
const (
	nodeChunk = 16
	attrChunk = 16
	kidChunk  = 32
)

// NewBuilder returns a builder whose first chunks hold exactly one tree
// of the given node and attribute counts.
func NewBuilder(nodes, attrs int) Builder {
	return Builder{
		nodes: make([]Node, 0, nodes),
		attrs: make([]Attr, 0, attrs),
		kids:  make([]*Node, 0, max(nodes-1, 0)),
	}
}

// Reset zeroes what the trees carved from b used of its chunks, so that
// b keeps no pointer into them, and keeps the chunks for the next tree.
// Those trees must not be used afterwards.
func (b *Builder) Reset() {
	clear(b.nodes)
	clear(b.attrs)
	clear(b.kids)
	b.nodes, b.attrs, b.kids = b.nodes[:0], b.attrs[:0], b.kids[:0]
}

// carve cuts n elements off the unused tail of *chunk, first replacing
// the chunk when fewer are left.
func carve[T any](chunk *[]T, n, fresh int) []T {
	if n == 0 {
		return nil
	}
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, max(n, fresh))
	}
	l := len(c)
	*chunk = c[:l+n]
	return c[l : l+n : l+n]
}

// Elem returns a new element with room reserved for the given numbers of
// attributes and children, to be filled with SetAttr and Append.
func (b *Builder) Elem(label string, attrs, children int) *Node {
	n := &carve(&b.nodes, 1, nodeChunk)[0]
	n.Label = label
	n.Attrs = carve(&b.attrs, attrs, attrChunk)[:0]
	n.Children = carve(&b.kids, children, kidChunk)[:0]
	return n
}

// Text returns a new text node.
func (b *Builder) Text(s string) *Node {
	n := &carve(&b.nodes, 1, nodeChunk)[0]
	n.Text = s
	return n
}

// Clone returns a deep copy of the tree rooted at n, built in b.
func (b *Builder) Clone(n *Node) *Node {
	cp := &carve(&b.nodes, 1, nodeChunk)[0]
	cp.Label, cp.Text = n.Label, n.Text
	cp.Attrs = carve(&b.attrs, len(n.Attrs), attrChunk)
	copy(cp.Attrs, n.Attrs)
	cp.Children = carve(&b.kids, len(n.Children), kidChunk)
	for i, c := range n.Children {
		cp.Children[i] = b.Clone(c)
	}
	return cp
}
