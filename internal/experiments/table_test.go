package experiments

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 12)
	tb.AddRow("b", 3.14159)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "3.142") {
		t.Errorf("out = %s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
}
