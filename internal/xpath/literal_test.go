package xpath

import (
	"math"
	"testing"
)

func TestFormatNumber(t *testing.T) {
	for _, c := range []struct {
		f    float64
		want string
	}{
		{0, "0"},
		{math.Copysign(0, -1), "0"},
		{42, "42"},
		{-7, "-7"},
		{2500000, "2500000"},
		{2500000.5, "2500000.5"},
		{1e21, "1000000000000000000000"},
		{0.00001, "0.00001"},
		{-0.5, "-0.5"},
		{1.0 / 3, "0.3333333333333333"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "Infinity"},
		{math.Inf(-1), "-Infinity"},
	} {
		if got := FormatNumber(c.f); got != c.want {
			t.Errorf("FormatNumber(%v) = %q, want %q", c.f, got, c.want)
		}
	}
}

// TestFormatNumberAllocs pins FormatNumber to its one allocation, the
// string it returns: a template's {$d} is written with it per item.
func TestFormatNumberAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { FormatNumber(1234.5) }); n != 1 {
		t.Errorf("FormatNumber allocates %v times, want 1", n)
	}
}

func TestLexString(t *testing.T) {
	for _, c := range []struct {
		src, lit string
		n        int
		ok       bool
	}{
		{`"a'b" rest`, `a'b`, 5, true},
		{`'a"b'`, `a"b`, 5, true},
		{`""`, ``, 2, true},
		{`"open`, ``, 5, false},
		{`x"y"`, ``, 0, false},
		{``, ``, 0, false},
	} {
		lit, n, ok := LexString(c.src)
		if lit != c.lit || n != c.n || ok != c.ok {
			t.Errorf("LexString(%q) = %q, %d, %v; want %q, %d, %v", c.src, lit, n, ok, c.lit, c.n, c.ok)
		}
	}
	for _, s := range []string{``, `plain`, `a'b`, `a"b`} {
		if lit, n, ok := LexString(Quote(s)); !ok || lit != s || n != len(Quote(s)) {
			t.Errorf("LexString(Quote(%q)) = %q, %d, %v", s, lit, n, ok)
		}
	}
}

// FuzzNumber: FormatNumber writes every finite number as text that
// ParseNumber reads back to it, negative zero as zero, and that
// LexNumber reads whole to the same number; the others are NaN,
// Infinity and -Infinity.
func FuzzNumber(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -1, 2500000, 1e21, 1e-5, 0.1, math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		s := FormatNumber(x)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			want := "NaN"
			if math.IsInf(x, 1) {
				want = "Infinity"
			} else if math.IsInf(x, -1) {
				want = "-Infinity"
			}
			if s != want {
				t.Fatalf("FormatNumber(%v) = %q, want %q", x, s, want)
			}
			return
		}
		want := x
		if want == 0 {
			want = 0 // negative zero is written 0
		}
		if got, ok := ParseNumber(s); !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ParseNumber(FormatNumber(%v) = %q) = %v, %v", x, s, got, ok)
		}
		if got, n, ok := LexNumber(s); !ok || n != len(s) || got != x {
			t.Fatalf("LexNumber(%q) = %v, %d, %v; want %v, %d", s, got, n, ok, x, len(s))
		}
	})
}
