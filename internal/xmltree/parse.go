package xmltree

import (
	"fmt"
	"strings"
)

// ParseError describes a syntax error with its byte offset in the input.
type ParseError struct {
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xmltree: parse error at offset %d: %s", e.Offset, e.Msg)
}

// MaxDepth bounds element nesting: Parse recurses once per open element,
// and its input arrives from other peers.
const MaxDepth = 10000

// Parse parses a single XML document and returns its root element.
// Leading/trailing whitespace, an optional <?xml?> prolog, comments and
// CDATA sections are accepted. The parser is hand written: the encoding/xml
// token stream drops attribute order guarantees we rely on and is far
// slower than needed for the filter benchmarks. Parse is (*Builder).Parse
// on a fresh Builder, so the tree is carved from chunks sized to the
// document by measure.
func Parse(s string) (*Node, error) {
	var b Builder
	return b.Parse(s)
}

// Parse parses a single XML document, as the function Parse does, into
// b's chunks. It zeroes what the last tree used of them (Reset) and
// reuses each chunk that holds what measure finds in s, replacing only
// those that do not with chunks sized to s; so a Builder that parses a
// stream of documents keeps chunks as large as the largest it has seen
// and soon allocates nothing. Every tree carved from b, by an earlier
// Parse or by Elem, Text and Clone, stays valid only until b parses
// again: its nodes are then overwritten.
func (b *Builder) Parse(s string) (*Node, error) {
	nodes, attrs := measure(s)
	b.Reset()
	if cap(b.nodes) < nodes {
		b.nodes = make([]Node, 0, nodes)
	}
	if cap(b.attrs) < attrs {
		b.attrs = make([]Attr, 0, attrs)
	}
	if cap(b.kids) < nodes-1 {
		b.kids = make([]*Node, 0, nodes-1)
	}
	p := parser{src: s, b: *b}
	// The children of the open elements, youngest last. Kept out of the
	// parser struct, whose pointers escape with the tree, so that the
	// array stays on the goroutine stack.
	var stack [32]*Node
	p.skipMisc()
	root, _, err := p.parseElement(stack[:0], 1)
	*b = p.b
	if err != nil {
		return nil, err
	}
	p.skipMisc()
	if p.pos != len(p.src) {
		return nil, p.errf("trailing content after root element")
	}
	return root, nil
}

// measure estimates the nodes and attributes of a document without
// parsing it: a node per start tag and per '<' that ends a run of text,
// an attribute per pair of quotes. Exact for what String() writes unless
// text contains quotes; markup inside comments or values over-counts,
// CDATA and text ending in a space or '>' under-count, which costs a
// little slack or a later chunk, never correctness. Both are capped at
// what a well-formed document of this length can hold (x<a/> is two nodes
// in five bytes, a="" with its space one attribute in five), so garbage
// reserves no more than a document could.
func measure(s string) (nodes, attrs int) {
	for i := 0; i+1 < len(s); i++ {
		if s[i] != '<' {
			continue
		}
		if nameFirst[s[i+1]] {
			nodes++
		}
		if i > 0 && s[i-1] != '>' && s[i-1] > ' ' { // not a tag's end, not white space
			nodes++
		}
	}
	attrs = (strings.Count(s, `"`) + strings.Count(s, "'")) / 2
	return min(nodes, 2*len(s)/5+1), min(attrs, len(s)/5)
}

// MustParse is Parse that panics on error; for tests and fixtures only.
func MustParse(s string) *Node {
	n, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

// ReadFirstTag scans only the first start tag of a serialized document and
// returns its label and attributes. This is the operation the paper's
// preFilter performs: simple conditions are evaluated "on the fly" from the
// root tag without materializing the rest of the item.
func ReadFirstTag(s string) (label string, attrs []Attr, err error) {
	return AppendFirstTag(nil, s)
}

// AppendFirstTag is ReadFirstTag appending the attributes to attrs, so a
// caller that reuses the slice reads a tag without allocating.
func AppendFirstTag(attrs []Attr, s string) (label string, _ []Attr, err error) {
	p := parser{src: s}
	p.skipMisc()
	if !p.consume('<') {
		return "", nil, p.errf("expected start tag")
	}
	label = p.readName()
	if label == "" {
		return "", nil, p.errf("expected element name")
	}
	for {
		p.skipSpace()
		if p.consume('>') || p.consumeSeq("/>") {
			return label, attrs, nil
		}
		name := p.readName()
		if name == "" {
			return "", nil, p.errf("expected attribute name")
		}
		p.skipSpace()
		if !p.consume('=') {
			return "", nil, p.errf("expected '=' after attribute %q", name)
		}
		p.skipSpace()
		val, e := p.readQuoted()
		if e != nil {
			return "", nil, e
		}
		attrs = append(attrs, Attr{Name: name, Value: val})
	}
}

type parser struct {
	src string
	pos int
	b   Builder
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

func (p *parser) consume(b byte) bool {
	if p.pos < len(p.src) && p.src[p.pos] == b {
		p.pos++
		return true
	}
	return false
}

func (p *parser) consumeSeq(s string) bool {
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// skipMisc skips whitespace, comments, processing instructions and the
// XML declaration between top-level constructs.
func (p *parser) skipMisc() {
	for {
		p.skipSpace()
		switch {
		case p.consumeSeq("<!--"):
			if i := strings.Index(p.src[p.pos:], "-->"); i >= 0 {
				p.pos += i + 3
			} else {
				p.pos = len(p.src)
			}
		case p.consumeSeq("<?"):
			if i := strings.Index(p.src[p.pos:], "?>"); i >= 0 {
				p.pos += i + 2
			} else {
				p.pos = len(p.src)
			}
		case p.consumeSeq("<!DOCTYPE"):
			if i := strings.IndexByte(p.src[p.pos:], '>'); i >= 0 {
				p.pos += i + 1
			} else {
				p.pos = len(p.src)
			}
		default:
			return
		}
	}
}

// nameFirst holds the bytes that may begin a name, nameRest those that
// may continue one (multi-byte runes are allowed in names).
var nameFirst, nameRest = func() (first, rest [256]bool) {
	for b := range first {
		first[b] = b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b == '_' || b == ':' || b >= 0x80
		rest[b] = first[b] || b >= '0' && b <= '9' || b == '-' || b == '.'
	}
	return first, rest
}()

func (p *parser) readName() string {
	src, start := p.src, p.pos
	if i := start; i < len(src) && nameFirst[src[i]] {
		for i++; i < len(src) && nameRest[src[i]]; i++ {
		}
		p.pos = i
	}
	return src[start:p.pos]
}

func (p *parser) readQuoted() (string, error) {
	quote := p.peek()
	if quote != '"' && quote != '\'' {
		return "", p.errf("expected quoted attribute value")
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != quote {
		p.pos++
	}
	if p.pos >= len(p.src) {
		return "", p.errf("unterminated attribute value")
	}
	raw := p.src[start:p.pos]
	p.pos++
	return unescape(raw), nil
}

// parseElement parses the element at p.pos, depth levels down. It
// collects its attributes at the tail of the attribute chunk and its
// children on open, above those of its ancestors, carves both lists once
// their lengths are known, and returns open as it found it (a slice
// passed and returned by value: through a pointer it would escape).
func (p *parser) parseElement(open []*Node, depth int) (*Node, []*Node, error) {
	if depth > MaxDepth {
		return nil, nil, p.errf("elements nested deeper than %d", MaxDepth)
	}
	if !p.consume('<') {
		return nil, nil, p.errf("expected '<'")
	}
	label := p.readName()
	if label == "" {
		return nil, nil, p.errf("expected element name")
	}
	n := p.b.Elem(label, 0, 0)
	first, empty := len(p.b.attrs), false
	for {
		p.skipSpace()
		if empty = p.peek() == '/' && p.consumeSeq("/>"); empty || p.consume('>') {
			break
		}
		name := p.readName()
		if name == "" {
			return nil, nil, p.errf("expected attribute name in <%s>", label)
		}
		p.skipSpace()
		if !p.consume('=') {
			return nil, nil, p.errf("expected '=' after attribute %q", name)
		}
		p.skipSpace()
		val, err := p.readQuoted()
		if err != nil {
			return nil, nil, err
		}
		if len(p.b.attrs) == cap(p.b.attrs) {
			// Replace the chunk, taking this element's attributes along.
			mine := p.b.attrs[first:]
			p.b.attrs = append(make([]Attr, 0, max(attrChunk, 2*len(mine))), mine...)
			first = 0
		}
		p.b.attrs = append(p.b.attrs, Attr{Name: name, Value: val})
	}
	if mine := p.b.attrs[first:]; len(mine) > 0 {
		n.Attrs = mine[:len(mine):len(mine)]
	}
	if empty {
		return n, open, nil
	}
	// Content.
	mark := len(open)
	for {
		if p.pos >= len(p.src) {
			return nil, nil, p.errf("unterminated element <%s>", label)
		}
		if p.src[p.pos] != '<' {
			start := p.pos
			for p.pos < len(p.src) && p.src[p.pos] != '<' {
				p.pos++
			}
			text := unescape(p.src[start:p.pos])
			if strings.TrimSpace(text) != "" {
				open = append(open, p.b.Text(text))
			}
			continue
		}
		switch rest := p.src[p.pos+1:]; { // what follows the '<' decides
		case strings.HasPrefix(rest, "/"):
			p.pos += 2
			end := p.readName()
			p.skipSpace()
			if !p.consume('>') {
				return nil, nil, p.errf("malformed end tag </%s", end)
			}
			if end != label {
				return nil, nil, p.errf("mismatched end tag </%s> for <%s>", end, label)
			}
			n.Children = carve(&p.b.kids, len(open)-mark, kidChunk)
			copy(n.Children, open[mark:])
			return n, open[:mark], nil
		case strings.HasPrefix(rest, "!--"):
			p.pos += 4
			i := strings.Index(p.src[p.pos:], "-->")
			if i < 0 {
				return nil, nil, p.errf("unterminated comment")
			}
			p.pos += i + 3
		case strings.HasPrefix(rest, "![CDATA["):
			p.pos += 9
			i := strings.Index(p.src[p.pos:], "]]>")
			if i < 0 {
				return nil, nil, p.errf("unterminated CDATA section")
			}
			open = append(open, p.b.Text(p.src[p.pos:p.pos+i]))
			p.pos += i + 3
		case strings.HasPrefix(rest, "?"):
			p.pos += 2
			i := strings.Index(p.src[p.pos:], "?>")
			if i < 0 {
				return nil, nil, p.errf("unterminated processing instruction")
			}
			p.pos += i + 2
		default:
			child, below, err := p.parseElement(open, depth+1)
			if err != nil {
				return nil, nil, err
			}
			open = append(below, child)
		}
	}
}

func unescape(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		if s[i] != '&' {
			b.WriteByte(s[i])
			i++
			continue
		}
		rest := s[i:]
		switch {
		case strings.HasPrefix(rest, "&lt;"):
			b.WriteByte('<')
			i += 4
		case strings.HasPrefix(rest, "&gt;"):
			b.WriteByte('>')
			i += 4
		case strings.HasPrefix(rest, "&amp;"):
			b.WriteByte('&')
			i += 5
		case strings.HasPrefix(rest, "&quot;"):
			b.WriteByte('"')
			i += 6
		case strings.HasPrefix(rest, "&apos;"):
			b.WriteByte('\'')
			i += 6
		default:
			b.WriteByte('&')
			i++
		}
	}
	return b.String()
}
