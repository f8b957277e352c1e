package xmltree_test

import (
	"fmt"
	"strings"

	"p2pm/internal/xmltree"
)

// The parser as it stood before trees were carved from a Builder's chunks
// (one &xmltree.Node{} per node, append-grown attribute and child lists), kept
// verbatim as the reference FuzzParse compares Parse against.

func refText(s string) *xmltree.Node { return &xmltree.Node{Text: s} }

func refParse(s string) (*xmltree.Node, error) {
	p := &refParser{src: s}
	p.skipMisc()
	root, err := p.parseElement()
	if err != nil {
		return nil, err
	}
	p.skipMisc()
	if p.pos != len(p.src) {
		return nil, p.errf("trailing content after root element")
	}
	return root, nil
}

type refParser struct {
	src string
	pos int
}

func (p *refParser) errf(format string, args ...any) error {
	return &xmltree.ParseError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *refParser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

func (p *refParser) consume(b byte) bool {
	if p.pos < len(p.src) && p.src[p.pos] == b {
		p.pos++
		return true
	}
	return false
}

func (p *refParser) consumeSeq(s string) bool {
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *refParser) skipSpace() {
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
func (p *refParser) skipMisc() {
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

func refNameChar(b byte, first bool) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b == '_', b == ':':
		return true
	case !first && (b >= '0' && b <= '9' || b == '-' || b == '.'):
		return true
	case b >= 0x80: // multi-byte runes allowed in names
		return true
	}
	return false
}

func (p *refParser) readName() string {
	start := p.pos
	for p.pos < len(p.src) && refNameChar(p.src[p.pos], p.pos == start) {
		p.pos++
	}
	return p.src[start:p.pos]
}

func (p *refParser) readQuoted() (string, error) {
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
	return refUnescape(raw), nil
}

func (p *refParser) parseElement() (*xmltree.Node, error) {
	if !p.consume('<') {
		return nil, p.errf("expected '<'")
	}
	label := p.readName()
	if label == "" {
		return nil, p.errf("expected element name")
	}
	n := &xmltree.Node{Label: label}
	for {
		p.skipSpace()
		if p.consumeSeq("/>") {
			return n, nil
		}
		if p.consume('>') {
			break
		}
		name := p.readName()
		if name == "" {
			return nil, p.errf("expected attribute name in <%s>", label)
		}
		p.skipSpace()
		if !p.consume('=') {
			return nil, p.errf("expected '=' after attribute %q", name)
		}
		p.skipSpace()
		val, err := p.readQuoted()
		if err != nil {
			return nil, err
		}
		n.Attrs = append(n.Attrs, xmltree.Attr{Name: name, Value: val})
	}
	// Content.
	for {
		if p.pos >= len(p.src) {
			return nil, p.errf("unterminated element <%s>", label)
		}
		switch {
		case p.consumeSeq("</"):
			end := p.readName()
			p.skipSpace()
			if !p.consume('>') {
				return nil, p.errf("malformed end tag </%s", end)
			}
			if end != label {
				return nil, p.errf("mismatched end tag </%s> for <%s>", end, label)
			}
			return n, nil
		case p.consumeSeq("<!--"):
			i := strings.Index(p.src[p.pos:], "-->")
			if i < 0 {
				return nil, p.errf("unterminated comment")
			}
			p.pos += i + 3
		case p.consumeSeq("<![CDATA["):
			i := strings.Index(p.src[p.pos:], "]]>")
			if i < 0 {
				return nil, p.errf("unterminated CDATA section")
			}
			n.Children = append(n.Children, refText(p.src[p.pos:p.pos+i]))
			p.pos += i + 3
		case p.consumeSeq("<?"):
			i := strings.Index(p.src[p.pos:], "?>")
			if i < 0 {
				return nil, p.errf("unterminated processing instruction")
			}
			p.pos += i + 2
		case p.peek() == '<':
			child, err := p.parseElement()
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, child)
		default:
			start := p.pos
			for p.pos < len(p.src) && p.src[p.pos] != '<' {
				p.pos++
			}
			text := refUnescape(p.src[start:p.pos])
			if strings.TrimSpace(text) != "" {
				n.Children = append(n.Children, refText(text))
			}
		}
	}
}

func refUnescape(s string) string {
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
