package monoid

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// values returns a deterministic pseudo-random value stream: decimal
// strings drawn from a universe of the given size, so every monoid
// (numeric and set-like alike) can absorb them.
func values(n, universe, salt int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = strconv.Itoa(1 + ((i+salt)*7919)%universe)
	}
	return out
}

func absorbAll(t *testing.T, m Monoid, vals []string) State {
	t.Helper()
	s := m.Zero()
	for _, v := range vals {
		if err := s.Absorb(v); err != nil {
			t.Fatalf("%s: absorb %q: %v", m.Name(), v, err)
		}
	}
	return s
}

func merged(t *testing.T, m Monoid, a, b State) State {
	t.Helper()
	// Merge through the wire: states round-trip before merging, like
	// partials crossing the network do.
	s, err := m.Decode(a.Encode())
	if err != nil {
		t.Fatalf("%s: decode own encoding %q: %v", m.Name(), a.Encode(), err)
	}
	o, err := m.Decode(b.Encode())
	if err != nil {
		t.Fatalf("%s: decode own encoding %q: %v", m.Name(), b.Encode(), err)
	}
	if err := s.Merge(o); err != nil {
		t.Fatalf("%s: merge: %v", m.Name(), err)
	}
	return s
}

func finals(s State) string {
	out := ""
	s.Final(func(a, v string) { out += a + "=" + v + " " })
	return out
}

// TestMonoidLaws checks, for every registered monoid, the properties the
// aggregation tree rests on: Encode/Decode round-trips bit-for-bit,
// Merge is commutative and associative over the wire, absorbing a
// partitioned stream then merging equals absorbing the union, and the
// zero state is the Merge identity.
func TestMonoidLaws(t *testing.T) {
	for _, name := range append([]string{""}, Names()...) {
		m, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		t.Run(m.Name(), func(t *testing.T) {
			vals := values(200, 37, 3)
			whole := absorbAll(t, m, vals)

			// Round-trip: decode(encode(s)) encodes identically.
			rt, err := m.Decode(whole.Encode())
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if rt.Encode() != whole.Encode() {
				t.Errorf("round-trip drifted: %q vs %q", rt.Encode(), whole.Encode())
			}

			// Partition into three, merge in both orders and groupings.
			a := absorbAll(t, m, vals[:50])
			b := absorbAll(t, m, vals[50:120])
			c := absorbAll(t, m, vals[120:])
			ab := merged(t, m, a, b)
			ba := merged(t, m, b, a)
			if ab.Encode() != ba.Encode() {
				t.Errorf("merge not commutative: %q vs %q", ab.Encode(), ba.Encode())
			}
			left := merged(t, m, ab, c)
			right := merged(t, m, a, merged(t, m, b, c))
			if left.Encode() != right.Encode() {
				t.Errorf("merge not associative: %q vs %q", left.Encode(), right.Encode())
			}
			if left.Encode() != whole.Encode() {
				t.Errorf("partitioned absorb+merge != whole absorb: %q vs %q", left.Encode(), whole.Encode())
			}
			if finals(left) != finals(whole) {
				t.Errorf("finals differ: %q vs %q", finals(left), finals(whole))
			}

			// Zero is the identity and encodes/decodes cleanly.
			z := merged(t, m, whole, m.Zero())
			if z.Encode() != whole.Encode() {
				t.Errorf("zero not identity: %q vs %q", z.Encode(), whole.Encode())
			}
			if _, err := m.Decode(m.Zero().Encode()); err != nil {
				t.Errorf("zero does not round-trip: %v", err)
			}

			// Merging a state of a different monoid is a type error.
			for _, otherName := range Names() {
				other, _ := Lookup(otherName)
				if other.Name() == m.Name() {
					continue
				}
				if err := whole.Merge(other.Zero()); err == nil {
					t.Errorf("merged a %s state into %s", other.Name(), m.Name())
				}
			}
		})
	}
}

// TestCountDecodeRejects: the wire validator refuses negative and
// overflowing counts — a malformed partial lands in the dropped counter
// instead of corrupting a window.
func TestCountDecodeRejects(t *testing.T) {
	m, _ := Lookup("")
	for _, bad := range []string{"-1", "-99999", "9223372036854775808", "1.5", "1e3", "", "x", "1 "} {
		if _, err := m.Decode(bad); err == nil {
			t.Errorf("count accepted %q", bad)
		}
	}
	s, err := m.Decode("42")
	if err != nil || s.Encode() != "42" {
		t.Errorf("count rejected a valid state: %v, %q", err, s.Encode())
	}
}

// TestDecodeRejectsGarbage feeds each monoid malformed encodings; all
// must be refused, never half-parsed.
func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]string{
		"sum":      {"x", "1/", "/2", "1/2/3", "1/-2", "5/0x2", "9223372036854775808/1"},
		"avg":      {"x", "3/", "1/2/3", "4/-1"},
		"min":      {"1x", "0.5", " 3"},
		"max":      {"1x", "--2", "3 "},
		"set":      {"%zz", "a,%"},
		"distinct": {"q", "sX:1", "s4096:3", "s1:0", "s1:65", "d1234", "s1:2,", "s,1:2", "s1:2,,3:4", "dzz"},
		"freq": {"junk", "9.0:1|", "0.512:1|", "0.1:-3|", "0.1:x|a", "|" + tooManyCandidates(),
			"0.1:2;0.1:3|", "0.0:9223372036854775807;0.0:1|", "0.0:1;|", ";0.0:1|", "|a,", "|,a"},
	}
	for name, bads := range cases {
		m, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		for _, bad := range bads {
			if _, err := m.Decode(bad); err == nil {
				t.Errorf("%s accepted %q", name, bad)
			}
		}
	}
}

func tooManyCandidates() string {
	out := ""
	for i := 0; i < 40; i++ {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("v%d", i)
	}
	return out
}

// TestHLLAccuracy: the estimate tracks the true cardinality within the
// documented tolerance at the scales the workloads use. Deterministic —
// the registers depend only on the value set.
func TestHLLAccuracy(t *testing.T) {
	m, _ := Lookup("distinct")
	for _, n := range []int{1, 10, 100, 1000, 5000} {
		s := m.Zero()
		for i := 0; i < n; i++ {
			if err := s.Absorb(fmt.Sprintf("user-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		got := ""
		s.Final(func(a, v string) {
			if a == "distinct" {
				got = v
			}
		})
		est, err := strconv.ParseFloat(got, 64)
		if err != nil {
			t.Fatalf("n=%d: bad estimate %q", n, got)
		}
		re := (est - float64(n)) / float64(n)
		if re < 0 {
			re = -re
		}
		if re > 0.05 {
			t.Errorf("n=%d: estimate %s off by %.1f%%", n, got, re*100)
		}
	}
}

// TestHLLDenseSparseAgree: the two encodings of the same registers merge
// and estimate identically — a dense partial meeting a sparse one is the
// normal mid-window migration case.
func TestHLLDenseSparseAgree(t *testing.T) {
	m, _ := Lookup("distinct")
	sparse := m.Zero()
	for i := 0; i < 20; i++ {
		sparse.Absorb(fmt.Sprintf("s%d", i)) //nolint:errcheck
	}
	dense := m.Zero()
	for i := 0; i < 3000; i++ {
		dense.Absorb(fmt.Sprintf("d%d", i)) //nolint:errcheck
	}
	if sparse.Encode()[0] != 's' || dense.Encode()[0] != 'd' {
		t.Fatalf("expected sparse+dense encodings, got %q / %q", sparse.Encode()[:1], dense.Encode()[:1])
	}
	ab := merged(t, m, sparse, dense)
	ba := merged(t, m, dense, sparse)
	if ab.Encode() != ba.Encode() || finals(ab) != finals(ba) {
		t.Errorf("sparse/dense merge order changed the state: %q vs %q", finals(ab), finals(ba))
	}
}

// TestFreqExactWithinCapacity: while a group's distinct values fit the
// candidate set, the top-k report is exact and order-independent.
func TestFreqExactWithinCapacity(t *testing.T) {
	m, _ := Lookup("freq")
	s := m.Zero()
	// value i appears i times: a clean frequency ladder.
	for v := 1; v <= 10; v++ {
		for i := 0; i < v; i++ {
			if err := s.Absorb(strconv.Itoa(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	top := ""
	s.Final(func(a, v string) {
		if a == "top" {
			top = v
		}
	})
	want := "10:10 9:9 8:8 7:7 6:6 5:5 4:4 3:3"
	if top != want {
		t.Errorf("top = %q, want %q", top, want)
	}
}

// TestSketchMatchesReference: agg-sketch's shape through the rewritten
// sketches and their pre-rewrite reference (reference_test.go). Sixteen
// leaf states absorb 1 000 Zipf(1.2) values each over a 512-value
// universe, cross the wire, merge into four interiors and those into a
// root; every state encodes and reports alike on both sides.
func TestSketchMatchesReference(t *testing.T) {
	for _, k := range sketchKinds {
		z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, 511)
		root := newSketchPair(k)
		for interior := 0; interior < 4; interior++ {
			acc := newSketchPair(k)
			for leaf := 0; leaf < 4; leaf++ {
				p := newSketchPair(k)
				for i := 0; i < 1000; i++ {
					v := strconv.FormatUint(z.Uint64()+1, 10)
					if err := p.got.Absorb(v); err != nil {
						t.Fatal(err)
					}
					p.want.Absorb(v) //nolint:errcheck // checked on the rewrite
					if i%100 == 99 {
						p.check(t, "Absorb")
					}
				}
				p.decode(t, "a leaf's partial", p.enc)
				acc.merge(t, p)
			}
			acc.decode(t, "an interior's partial", acc.enc)
			root.merge(t, acc)
		}
	}
}

// TestSketchAllocs pins the sketch hot path: a freq Absorb at the
// candidate cap and a distinct Absorb allocate nothing, and an Encode
// builds its string in one allocation however many cells are set.
func TestSketchAllocs(t *testing.T) {
	fresh := make([]string, 4096)
	for i := range fresh {
		// Decreasing, so on a tied estimate the new value stays and a
		// candidate is evicted.
		fresh[i] = fmt.Sprintf("k%05d", len(fresh)-i)
	}
	freq := newFreqState()
	for i := 0; i < cmCandidates; i++ {
		freq.Absorb("z" + strconv.Itoa(i)) //nolint:errcheck // non-empty
	}
	hll := &hllState{}
	n := 0
	if a := testing.AllocsPerRun(1000, func() { freq.Absorb(fresh[n%len(fresh)]); n++ }); a != 0 { //nolint:errcheck // non-empty
		t.Errorf("freq Absorb of a new value at the cap: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { hll.Absorb(fresh[n%len(fresh)]); n++ }); a != 0 { //nolint:errcheck // non-empty
		t.Errorf("distinct Absorb: %v allocs, want 0", a)
	}

	for _, values := range []int{1, 100, 4096} {
		freq, hll := newFreqState(), &hllState{}
		for _, v := range fresh[:values] {
			freq.Absorb(v) //nolint:errcheck // non-empty
			hll.Absorb(v)  //nolint:errcheck // non-empty
		}
		if a := testing.AllocsPerRun(100, func() { freq.Encode() }); a != 1 {
			t.Errorf("freq Encode after %d values: %v allocs, want 1", values, a)
		}
		if a := testing.AllocsPerRun(100, func() { hll.Encode() }); a != 1 {
			t.Errorf("distinct Encode (%q form) after %d values: %v allocs, want 1", hll.Encode()[:1], values, a)
		}
	}
}

// TestCountersRefuseOverflow: a counter or sum that would wrap past
// int64 refuses the Absorb or Merge and keeps its state. A wrapped count
// encodes negative, which Decode rejects, so an interior that forwarded
// it would lose the window at the root.
func TestCountersRefuseOverflow(t *testing.T) {
	cases := []struct{ fn, full, one, val string }{
		{"count", "9223372036854775807", "1", "x"},
		{"sum", "9223372036854775807/1", "1/1", "1"},
		{"sum", "-9223372036854775808/1", "-1/1", "-1"},
		{"avg", "0/9223372036854775807", "0/1", "0"},
		{"freq", "0.0:9223372036854775807|", "0.0:1|", ""},
	}
	for _, c := range cases {
		m, _ := Lookup(c.fn)
		full, err := m.Decode(c.full)
		if err != nil {
			t.Fatalf("%s: Decode(%q): %v", c.fn, c.full, err)
		}
		one, err := m.Decode(c.one)
		if err != nil {
			t.Fatalf("%s: Decode(%q): %v", c.fn, c.one, err)
		}
		if err := full.Merge(one); err == nil {
			t.Errorf("%s: %s ⊕ %s merged to %q", c.fn, c.full, c.one, full.Encode())
		} else if full.Encode() != c.full {
			t.Errorf("%s: refused merge changed %q to %q", c.fn, c.full, full.Encode())
		}
		if c.fn == "freq" {
			// The value whose first-row bucket is the full cell 0.0.
			for i := 0; ; i++ {
				if v := strconv.Itoa(i); cmHash(v)[0] == 0 {
					c.val = v
					break
				}
			}
		}
		if err := full.Absorb(c.val); err == nil {
			t.Errorf("%s: absorbing %q into %s gave %q", c.fn, c.val, c.full, full.Encode())
		} else if full.Encode() != c.full {
			t.Errorf("%s: refused Absorb changed %q to %q", c.fn, c.full, full.Encode())
		}
	}
}

// TestAvgWritesPlainDecimal: the avg record attribute is written as
// XPath's string() writes a number, never with an exponent.
func TestAvgWritesPlainDecimal(t *testing.T) {
	m, _ := Lookup("avg")
	s := absorbAll(t, m, []string{"2000000", "3000001"})
	if got, want := finals(s), "avg=2500000.5 n=2 "; got != want {
		t.Errorf("avg of 2000000 and 3000001 = %q, want %q", got, want)
	}
}
