package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/x2_x6_quick.golden from this run")

// timingColumns are masked by header name: their cells count what the
// operator goroutines happened to have consumed when a fault struck or a
// sample was taken — wall-clock scheduling, not the seeded schedule — so
// they differ between runs of one commit. Found by repeated runs of the
// parent commit under GOMAXPROCS=1 and 2; every other cell is a function
// of the seed and is pinned byte for byte.
var timingColumns = map[string]bool{
	"replayed":      true, // items retransmitted: how far consumers had read at the crash
	"msgs":          true, // network totals include those retransmissions
	"dropped":       true,
	"bytes on wire": true,
	"repairs":       true, // X6 only (see maskedTable): false kills race the repair sweep
}

// maskedTable re-renders a stats.Table with one " | " between cells and
// the timing columns replaced by "~". Cells are cut at the column spans
// of the dashed separator row, so the result does not move with the
// width of a masked cell.
func maskedTable(id, rendered string) string {
	lines := strings.Split(strings.TrimRight(rendered, "\n"), "\n")
	var b strings.Builder
	b.WriteString(lines[0] + "\n") // title
	type span struct{ lo, hi int }
	var spans []span
	sep := lines[2]
	for i := 0; i < len(sep); {
		if sep[i] != '-' {
			i++
			continue
		}
		j := i
		for j < len(sep) && sep[j] == '-' {
			j++
		}
		spans = append(spans, span{i, j})
		i = j
	}
	cut := func(line string, s span) string {
		if s.lo >= len(line) {
			return ""
		}
		hi := s.hi
		if hi > len(line) {
			hi = len(line)
		}
		return strings.TrimSpace(line[s.lo:hi])
	}
	headers := make([]string, len(spans))
	for i, s := range spans {
		headers[i] = cut(lines[1], s)
	}
	for n, line := range lines[1:] {
		if n == 1 {
			continue // the separator row
		}
		cells := make([]string, len(spans))
		for i, s := range spans {
			cells[i] = cut(line, s)
			masked := timingColumns[headers[i]] && (headers[i] != "repairs" || id == "X6")
			if n > 1 && masked {
				cells[i] = "~"
			}
		}
		b.WriteString(strings.Join(cells, " | ") + "\n")
	}
	return b.String()
}

// TestGoldenX2X6Quick pins every deterministic cell of the X2–X6 Quick
// tables — the churn/agg/share/adapt scenarios end to end — so a change
// to the scenario harness cannot move them unnoticed.
func TestGoldenX2X6Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs X2–X6; covered by the matrix job")
	}
	var b strings.Builder
	for _, id := range []string{"X2", "X3", "X4", "X5", "X6"} {
		r, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		res, err := r.Run(Quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		fmt.Fprintf(&b, "---- %s ----\n", id)
		for _, tb := range res.Tables {
			b.WriteString(maskedTable(id, tb.String()))
		}
		fmt.Fprintf(&b, "holds: %v\n", res.Holds)
	}
	path := filepath.Join("testdata", "x2_x6_quick.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("X2–X6 Quick tables moved.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
