package xmltree

import (
	"strings"
	"unicode/utf8"
)

func serialize(n *Node, b *strings.Builder) {
	if n.IsText() {
		escapeText(b, n.Text)
		return
	}
	b.WriteByte('<')
	b.WriteString(n.Label)
	for _, a := range n.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Name)
		b.WriteString(`="`)
		escapeAttr(b, a.Value)
		b.WriteByte('"')
	}
	if len(n.Children) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	for _, c := range n.Children {
		serialize(c, b)
	}
	b.WriteString("</")
	b.WriteString(n.Label)
	b.WriteByte('>')
}

// Indent returns a pretty-printed form with two-space indentation, used by
// the CLI tools and examples. Text-only elements stay on one line.
func (n *Node) Indent() string {
	var b strings.Builder
	indent(n, &b, 0)
	return b.String()
}

func indent(n *Node, b *strings.Builder, depth int) {
	pad := strings.Repeat("  ", depth)
	if n.IsText() {
		if strings.TrimSpace(n.Text) == "" {
			return
		}
		b.WriteString(pad)
		escapeText(b, strings.TrimSpace(n.Text))
		b.WriteByte('\n')
		return
	}
	b.WriteString(pad)
	b.WriteByte('<')
	b.WriteString(n.Label)
	for _, a := range n.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Name)
		b.WriteString(`="`)
		escapeAttr(b, a.Value)
		b.WriteByte('"')
	}
	if len(n.Children) == 0 {
		b.WriteString("/>\n")
		return
	}
	if textOnly(n) {
		b.WriteByte('>')
		for _, c := range n.Children {
			escapeText(b, c.Text)
		}
		b.WriteString("</")
		b.WriteString(n.Label)
		b.WriteString(">\n")
		return
	}
	b.WriteString(">\n")
	for _, c := range n.Children {
		indent(c, b, depth+1)
	}
	b.WriteString(pad)
	b.WriteString("</")
	b.WriteString(n.Label)
	b.WriteString(">\n")
}

func textOnly(n *Node) bool {
	for _, c := range n.Children {
		if !c.IsText() {
			return false
		}
	}
	return true
}

func escapeText(b *strings.Builder, s string) { escape(b, s, false) }
func escapeAttr(b *strings.Builder, s string) { escape(b, s, true) }

// escapeAt classifies the byte at s[i]: the replacement the serializer
// writes for it ("" means copy verbatim) and the input width it covers.
// Text escapes < > &, attribute values < & ". A byte that is not valid
// UTF-8 is written as U+FFFD (1 byte in, 3 out), so the output always is.
// escape and escapedLen both read this one table, which is what keeps
// SerializedSize equal to len(String()).
func escapeAt(s string, i int, attr bool) (string, int) {
	switch c := s[i]; {
	case c == '<':
		return "&lt;", 1
	case c == '&':
		return "&amp;", 1
	case c == '>' && !attr:
		return "&gt;", 1
	case c == '"' && attr:
		return "&quot;", 1
	case c >= utf8.RuneSelf:
		if r, w := utf8.DecodeRuneInString(s[i:]); r != utf8.RuneError || w != 1 {
			return "", w
		}
		return "\uFFFD", 1
	}
	return "", 1
}

// plain reports the bytes escapeAt copies verbatim whatever follows and
// whichever mode: ASCII other than < > & ". The loops below skip them
// without the call.
func plain(c byte) bool {
	const special uint64 = 1<<'<' | 1<<'>' | 1<<'&' | 1<<'"'
	return c < utf8.RuneSelf && (c >= 64 || special>>c&1 == 0)
}

// escape writes s escaped, copying the clean runs between replacements
// whole.
func escape(b *strings.Builder, s string, attr bool) {
	clean := 0
	for i := 0; i < len(s); {
		if plain(s[i]) {
			i++
			continue
		}
		esc, w := escapeAt(s, i, attr)
		if esc != "" {
			b.WriteString(s[clean:i])
			b.WriteString(esc)
			clean = i + w
		}
		i += w
	}
	b.WriteString(s[clean:])
}

// escapedLen returns the number of bytes escape writes for s.
func escapedLen(s string, attr bool) int {
	size := len(s)
	for i := 0; i < len(s); {
		if plain(s[i]) {
			i++
			continue
		}
		esc, w := escapeAt(s, i, attr)
		if esc != "" {
			size += len(esc) - w
		}
		i += w
	}
	return size
}

// SerializedSize returns len(n.String()) without building the string: the
// transfer cost of shipping a tree between peers, counted at every hop.
// It mirrors serialize term by term, adding lengths where serialize
// writes bytes.
func (n *Node) SerializedSize() int {
	if n.IsText() {
		return escapedLen(n.Text, false)
	}
	size := len("<") + len(n.Label)
	for _, a := range n.Attrs {
		size += len(" ") + len(a.Name) + len(`="`) + escapedLen(a.Value, true) + len(`"`)
	}
	if len(n.Children) == 0 {
		return size + len("/>")
	}
	size += len(">")
	for _, c := range n.Children {
		size += c.SerializedSize()
	}
	return size + len("</") + len(n.Label) + len(">")
}
