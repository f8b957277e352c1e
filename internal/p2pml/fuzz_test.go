package p2pml

import (
	"testing"

	"p2pm/internal/xmltree"
)

// FuzzXMLArg: an alerter's XML argument is read as text when it is a
// <p> holding plain text, and by the XML parser otherwise. Both ways must
// agree with the parser on every fragment: the same peer (the <p>'s
// inner text without blanks or an http(s) scheme), the same argument
// tree for any other element, or an error in both.
func FuzzXMLArg(f *testing.F) {
	for _, s := range []string{
		"<p>a.com</p>", "<p>a&amp;b</p>", "<p><![CDATA[a<b]]></p>", "<p>a<!-- c -->b</p>",
		`<p x="1">a</p>`, "<p/>", "<p >a</p>", "<p>a</p >", "<p> \t\n</p>", "<p>  a.com \n</p>",
		"<p>http://a.com/</p>", "<p>https://http://a.com//</p>", "<p>a]]>b</p>", "<p>a>b</p>",
		"<p></p>", `<feed url="u"/>`, "<p>a</p>trailing", "<p>a</q>", "<p>", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, frag string) {
		peer, arg, err := xmlArg(frag)
		ref, rerr := xmltree.Parse(frag)
		if (err != nil) != (rerr != nil) {
			t.Fatalf("xmlArg(%q) error %v, parser error %v", frag, err, rerr)
		}
		switch {
		case rerr != nil:
		case ref.Label == "p":
			if want := stripScheme(ref.InnerText()); arg != nil || peer != want {
				t.Fatalf("xmlArg(%q) = %q, %v; want peer %q", frag, peer, arg, want)
			}
		case arg == nil || arg.String() != ref.String() || peer != "":
			t.Fatalf("xmlArg(%q) = %q, %v; want argument %s", frag, peer, arg, ref)
		}
	})
}
