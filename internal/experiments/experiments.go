// Package experiments regenerates the paper's evaluation artifacts. The
// paper (a workshop paper) publishes no numeric tables — Figures 1–7 are
// architectural — so the reproduction regenerates (a) every figure as a
// runnable scenario and (b) every performance claim made in prose as a
// measured table. Each Result carries its claim next to the measured
// tables; `benchrun -list` indexes the experiment identifiers (F1–F7,
// C1–C11, X1–X6).
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Scale selects experiment sizes.
type Scale int

// Quick finishes each experiment in well under a second (CI); Full uses
// the sizes the README reports.
const (
	Quick Scale = iota
	Full
)

// Result is one experiment's regenerated output.
type Result struct {
	ID     string
	Claim  string // the paper's claim or figure being regenerated
	Tables []*Table
	Notes  []string
	// Holds reports whether the claim's *shape* held (who wins, direction
	// of effect). Absolute numbers are not expected to match the paper's
	// unreported testbed.
	Holds bool
}

// String renders the result.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "---- %s ----\n", r.ID)
	fmt.Fprintf(&b, "paper: %s\n", r.Claim)
	for _, t := range r.Tables {
		b.WriteString(t.String())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	verdict := "HOLDS"
	if !r.Holds {
		verdict = "DOES NOT HOLD"
	}
	fmt.Fprintf(&b, "claim shape: %s\n", verdict)
	return b.String()
}

// Runner is one registered experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(Scale) (*Result, error)
}

var registry []Runner

func register(id, name string, run func(Scale) (*Result, error)) {
	registry = append(registry, Runner{ID: id, Name: name, Run: run})
}

// All returns the registered experiments sorted by ID (F* before C*).
func All() []Runner {
	out := append([]Runner(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return ordinal(out[i].ID) < ordinal(out[j].ID) })
	return out
}

// Lookup finds one experiment by ID (case-insensitive).
func Lookup(id string) (Runner, bool) {
	for _, r := range registry {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Runner{}, false
}

func ordinal(id string) string {
	// F1..F7 sort before C1..C11, which sort before the X extension
	// experiments; digits are padded for numeric order.
	kind := id[:1]
	num := id[1:]
	pad := strings.Repeat("0", 3-len(num)) + num
	switch kind {
	case "F":
		return "0" + pad
	case "C":
		return "1" + pad
	}
	return "2" + pad
}
