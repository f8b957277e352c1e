package algebra

import (
	"testing"

	"p2pm/internal/p2pml"
)

// TestCanonRenderer pins the renderer's variable handling. It walks the
// expression tree, so a name is one token however it reads in text: $x
// never fires inside $xy, $x_tail or $x9, a suffix or a whole-string
// reference renames cleanly, names are case-sensitive, a quoted "$e" is
// a literal, and a LET inlines as its definition, seeing only the LETs
// declared before it.
func TestCanonRenderer(t *testing.T) {
	let := func(v, src string) p2pml.LetBinding {
		e, err := p2pml.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		return p2pml.LetBinding{Var: v, Expr: e}
	}
	lag := []p2pml.LetBinding{let("lag", "$a - $b")}
	for _, c := range []struct {
		src, rename string
		lets        []p2pml.LetBinding
		want        string
	}{
		{"$xy + 1", "x", nil, "$xy + 1"},             // longer var untouched
		{"$x + $xy", "x", nil, "$_ + $xy"},           // both in one expression
		{"$a - $x", "x", nil, "$a - $_"},             // suffix position
		{"$x", "x", nil, "$_"},                       // whole expression
		{"$x_tail + 1", "x", nil, "$x_tail + 1"},     // underscore continues the word
		{"$x9 + 1", "x", nil, "$x9 + 1"},             // digit continues the word
		{"($x) + $x.attr", "x", nil, "$_ + $_.attr"}, // the tree keeps no redundant parentheses
		{"$x + $X", "x", nil, "$_ + $X"},             // case-sensitive
		{"$lag + 10", "", lag, "($a - $b) + 10"},     // inline form
		{"$lagging + 10", "", lag, "$lagging + 10"},  // a longer name is another variable
		{"$e.a + $early", "e", nil, "$_.a + $early"}, // attribute of the renamed variable
		{"$d + 10", "", []p2pml.LetBinding{let("d", "$x")}, "($x) + 10"},
		{"$x//city", "x", nil, "$_//city"},               // a path keeps its steps
		{`"$e"`, "e", nil, `"$e"`},                       // a literal is not a variable
		{"$e.r - $e.c * 2", "e", nil, "$_.r - $_.c * 2"}, // precedence needs no parentheses
		{"($e.r - $e.c) * 2", "e", nil, "($_.r - $_.c) * 2"},
		// A chain resolves; a definition cannot see a later LET or itself.
		{"$dd", "e", []p2pml.LetBinding{let("d", "$e.t"), let("dd", "$d * 2")}, "(($_.t) * 2)"},
		{"$a", "", []p2pml.LetBinding{let("a", "$b + $a"), let("b", "1")}, "($b + $a)"},
	} {
		e, err := p2pml.ParseExpr(c.src)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonExpr(e, c.lets, c.rename); got != c.want {
			t.Errorf("%s (rename $%s) renders %q, want %q", c.src, c.rename, got, c.want)
		}
	}
}
