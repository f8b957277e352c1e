package xpath

import (
	"strconv"
	"strings"
	"testing"
)

// referenceCompare is Compare as it was before ParseNumber: both sides
// through strconv.ParseFloat, numeric when neither fails. It is the
// semantics the rewrite (and the filter's condition index) must keep.
func referenceCompare(got string, op CmpOp, want string) bool {
	gn, gerr := strconv.ParseFloat(strings.TrimSpace(got), 64)
	wn, werr := strconv.ParseFloat(strings.TrimSpace(want), 64)
	if gerr == nil && werr == nil {
		switch op {
		case OpEq:
			return gn == wn
		case OpNe:
			return gn != wn
		case OpLt:
			return gn < wn
		case OpLe:
			return gn <= wn
		case OpGt:
			return gn > wn
		case OpGe:
			return gn >= wn
		}
		return false
	}
	switch op {
	case OpEq:
		return got == want
	case OpNe:
		return got != want
	case OpLt:
		return got < want
	case OpLe:
		return got <= want
	case OpGt:
		return got > want
	case OpGe:
		return got >= want
	}
	return false
}

var compareOps = []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}

// compareZoo holds the spellings where numeric detection is delicate.
var compareZoo = []string{
	"1.0", "1", " 7 ", "7", "+5", "5", ".5", "0.5", "1e3", "1000", "0x10", "16", "0x1p4",
	"1_0", "10", "NaN", "nan", "Inf", "+Inf", "inf", "-inf", "Infinity", "infinite", "nancy",
	"", " ", "v07", "v7", "-", "+", ".", "-0", "0", "1e999", "1e", "١", " 7 ", "7\n",
	"paris", "Paris", "30-", "30.0",
}

func TestCompareMatchesReference(t *testing.T) {
	for _, got := range compareZoo {
		for _, want := range compareZoo {
			for _, op := range compareOps {
				if g, w := Compare(got, op, want), referenceCompare(got, op, want); g != w {
					t.Errorf("Compare(%q %s %q) = %v, reference %v", got, op, want, g, w)
				}
			}
		}
	}
}

func TestParseNumberMatchesParseFloat(t *testing.T) {
	for _, s := range compareZoo {
		n, ok := ParseNumber(s)
		ref, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		bothNaN := n != n && ref != ref
		if ok != (err == nil) || ok && n != ref && !bothNaN {
			t.Errorf("ParseNumber(%q) = %v, %v; ParseFloat gives %v, %v", s, n, ok, ref, err)
		}
	}
}

// TestParseNumberRejectsWithoutAllocating pins the reason ParseNumber
// exists: a value that is no number costs no *strconv.NumError.
func TestParseNumberRejectsWithoutAllocating(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		ParseNumber("v07")
		ParseNumber("http://meteo.com")
		Compare("paris", OpEq, "london")
	}); n != 0 {
		t.Errorf("%v allocations rejecting non-numbers, want 0", n)
	}
}

// FuzzCompare: Compare must give its reference's verdict on any pair of
// values, under every operator.
func FuzzCompare(f *testing.F) {
	for i, s := range compareZoo {
		f.Add(s, compareZoo[(i+1)%len(compareZoo)])
	}
	f.Fuzz(func(t *testing.T, got, want string) {
		for _, op := range compareOps {
			if g, w := Compare(got, op, want), referenceCompare(got, op, want); g != w {
				t.Errorf("Compare(%q %s %q) = %v, reference %v", got, op, want, g, w)
			}
		}
	})
}
