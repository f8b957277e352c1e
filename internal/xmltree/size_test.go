package xmltree

import (
	"strings"
	"testing"
)

// The serializer as it stood before SerializedSize became a counting walk,
// kept verbatim as the reference: String() must stay byte-identical to it
// and SerializedSize() must equal its length.

func refString(n *Node) string {
	var b strings.Builder
	refSerialize(n, &b)
	return b.String()
}

func refSerialize(n *Node, b *strings.Builder) {
	if n.IsText() {
		refEscapeText(b, n.Text)
		return
	}
	b.WriteByte('<')
	b.WriteString(n.Label)
	for _, a := range n.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Name)
		b.WriteString(`="`)
		refEscapeAttr(b, a.Value)
		b.WriteByte('"')
	}
	if len(n.Children) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	for _, c := range n.Children {
		refSerialize(c, b)
	}
	b.WriteString("</")
	b.WriteString(n.Label)
	b.WriteByte('>')
}

func refEscapeText(b *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '&':
			b.WriteString("&amp;")
		default:
			b.WriteRune(r)
		}
	}
}

func refEscapeAttr(b *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '<':
			b.WriteString("&lt;")
		case '&':
			b.WriteString("&amp;")
		case '"':
			b.WriteString("&quot;")
		default:
			b.WriteRune(r)
		}
	}
}

// fuzzTree builds a tree that puts every fuzzed string in every position
// the serializer treats differently: label, attribute name, attribute
// value, text, and — by shape — empty elements, nested empty elements,
// mixed content and a bare text root.
func fuzzTree(label, attr, value, text string, shape uint8) *Node {
	leaf := Elem(label).SetAttr(attr, value)
	switch shape % 5 {
	case 0:
		return Text(text)
	case 1:
		return leaf
	case 2:
		return Elem(label, Elem(label, Elem(label)), Elem("e"))
	case 3:
		return leaf.Append(Text(text), Elem("e", Text("")), Text(value))
	default:
		return Elem("alert", leaf, ElemText(label, text)).SetAttr("a", text).SetAttr(attr, value)
	}
}

func checkSize(t *testing.T, n *Node) {
	t.Helper()
	want := refString(n)
	if got := n.String(); got != want {
		t.Fatalf("String() = %q, reference serializer %q", got, want)
	}
	if got := n.SerializedSize(); got != len(want) {
		t.Fatalf("SerializedSize() = %d, len(String()) = %d for %q", got, len(want), want)
	}
}

// FuzzSerializedSize: the byte accounting rests on SerializedSize, so on
// every tree it must equal len(String()), and String must equal the
// reference serializer.
func FuzzSerializedSize(f *testing.F) {
	for _, s := range []string{
		"",                      // empty text
		`<>&"`,                  // every escaped byte, in text and in attribute values
		"a<b>c&d\"e'",           // escapes between clean runs
		"héllo, 世界 🎈",           // 2-, 3- and 4-byte runes
		"\xff",                  // lone invalid byte: 1 byte in, 3 out
		"ab\xffcd\xc3",          // invalid bytes mid-run and a truncated rune at the end
		"\xed\xa0\x80",          // UTF-8-encoded surrogate: three invalid bytes
		"\uFFFD",                // literal replacement character: 3 in, 3 out
		"&lt; already &amp;amp", // already-escaped input is escaped again
	} {
		for shape := uint8(0); shape < 5; shape++ {
			f.Add("x", "k", s, s, shape)
			f.Add(s, s, s, s, shape)
		}
	}
	f.Fuzz(func(t *testing.T, label, attr, value, text string, shape uint8) {
		checkSize(t, fuzzTree(label, attr, value, text, shape))
	})
}

// TestSerializedSizeAllocs pins the counting walk at zero allocations and
// String() at one (the pre-grown builder).
func TestSerializedSizeAllocs(t *testing.T) {
	n := fuzzTree("alert", "callee", `http://meteo.com/?a=1&b="2"`, "caf\xe9 <ok>", 4)
	checkSize(t, n)
	if a := testing.AllocsPerRun(100, func() { sink = n.SerializedSize() }); a != 0 {
		t.Errorf("SerializedSize allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { sink = len(n.String()) }); a != 1 {
		t.Errorf("String allocates %v times per call, want 1", a)
	}
}

var sink int
