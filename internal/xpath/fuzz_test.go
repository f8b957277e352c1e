package xpath

import (
	"strings"
	"testing"
)

// FuzzCompile: subscriptions embed paths that CompilePrefix cuts out of
// P2PML text, so neither compiler may panic, the prefix must be a cut of
// the input that compiles on its own to the same path, and a path
// Compile accepts whole is that prefix followed by blanks only. A path
// renders to text that compiles back to the same rendering.
func FuzzCompile(f *testing.F) {
	for _, src := range []string{
		`//a//b`,
		`alert[@callMethod = "GetTemperature"]`,
		`/Stream[Operator/Filter][Operands/Operand[@OPeerId=$p1][@OStreamId=$s1]]`,
		`a/b/@id`,
		`a/text()`,
		`*[@x != 3]  `,
		`$c1/alert[@callMethod = "x"] and $c2`,
		`item[@n >= 10`,
		``,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		whole, wholeErr := Compile(src)
		p, n, err := CompilePrefix(src)
		if err != nil {
			if wholeErr == nil {
				t.Fatalf("Compile(%q) accepts what CompilePrefix rejects: %v", src, err)
			}
			return
		}
		if n < 0 || n > len(src) {
			t.Fatalf("CompilePrefix(%q) consumed %d of %d bytes", src, n, len(src))
		}
		if wholeErr == nil {
			if rest := strings.Trim(src[n:], " \t"); rest != "" {
				t.Fatalf("Compile(%q) accepts, but %q follows the prefix", src, rest)
			}
			if whole.relString() != p.relString() {
				t.Fatalf("Compile(%q) = %s, its prefix %s", src, whole.relString(), p.relString())
			}
		}
		if again, err := Compile(p.relString()); err != nil || again.relString() != p.relString() {
			t.Fatalf("%q renders as %q, which does not compile back to itself: %v", src[:n], p.relString(), err)
		}
		alone, err := Compile(src[:n])
		if err != nil {
			t.Fatalf("prefix %q of %q does not compile alone: %v", src[:n], src, err)
		}
		if alone.String() != p.String() || alone.relString() != p.relString() {
			t.Fatalf("prefix %q of %q compiles alone to %s (%s), in place to %s (%s)",
				src[:n], src, alone, alone.relString(), p, p.relString())
		}
	})
}
