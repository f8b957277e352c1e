package filter

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAESInsertValidation(t *testing.T) {
	a := NewAES()
	if err := a.Insert(nil, 0); err == nil {
		t.Error("empty sequence should fail")
	}
	if err := a.Insert([]int{2, 1}, 0); err == nil {
		t.Error("descending sequence should fail")
	}
	if err := a.Insert([]int{1, 1}, 0); err == nil {
		t.Error("duplicate condition should fail")
	}
	if err := a.Insert([]int{1, 2}, 0); err != nil {
		t.Errorf("valid insert failed: %v", err)
	}
	if a.Size() != 1 {
		t.Errorf("Size = %d", a.Size())
	}
}

// TestAESFigure6 builds exactly the subscription set of Figure 6:
//
//	Q1 = C1, C2, Q'1      Q4 = C1, C3, Q'4
//	Q2 = C1, C2, Q'2      Q5 = C1
//	Q3 = C3, Q'3          Q6 = C1, C2, C4, Q'6
//
// (complex parts are irrelevant to the AES itself) and checks the paper's
// worked example: a document satisfying {C1, C3} yields exactly
// {Q3, Q4, Q5}.
func TestAESFigure6(t *testing.T) {
	const (
		c1, c2, c3, c4         = 1, 2, 3, 4
		q1, q2, q3, q4, q5, q6 = 1, 2, 3, 4, 5, 6
	)
	a := NewAES()
	mustInsert := func(seq []int, q int) {
		t.Helper()
		if err := a.Insert(seq, q); err != nil {
			t.Fatal(err)
		}
	}
	mustInsert([]int{c1, c2}, q1)
	mustInsert([]int{c1, c2}, q2)
	mustInsert([]int{c3}, q3)
	mustInsert([]int{c1, c3}, q4)
	mustInsert([]int{c1}, q5)
	mustInsert([]int{c1, c2, c4}, q6)

	got, _ := a.Match([]int{c1, c3})
	if fmt.Sprint(got) != fmt.Sprint([]int{q3, q4, q5}) {
		t.Errorf("Match(C1,C3) = %v, want [3 4 5]", got)
	}

	// All conditions satisfied: everything matches.
	got, _ = a.Match([]int{c1, c2, c3, c4})
	if fmt.Sprint(got) != fmt.Sprint([]int{q1, q2, q3, q4, q5, q6}) {
		t.Errorf("Match(all) = %v", got)
	}

	// C2 alone matches nothing (C2 only appears after C1).
	if got, _ := a.Match([]int{c2}); len(got) != 0 {
		t.Errorf("Match(C2) = %v, want empty", got)
	}

	// The structure itself: H has C1 and C3; H[C1] has C2 and C3; H[C1,C2]
	// has C4 marked with Q6 — mirrors the paper's figure.
	dump := a.Dump(func(id int) string { return fmt.Sprintf("C%d", id) })
	for _, want := range []string{
		"H: C1{#5} C3{#3}",
		"H[C1]: C2{#1,#2} C3{#4}",
		"H[C1,C2]: C4{#6}",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestAESSubsequenceSemantics(t *testing.T) {
	a := NewAES()
	if err := a.Insert([]int{1, 3, 5}, 7); err != nil {
		t.Fatal(err)
	}
	// Satisfied list is a strict superset interleaving other conditions.
	if got, _ := a.Match([]int{0, 1, 2, 3, 4, 5, 6}); len(got) != 1 || got[0] != 7 {
		t.Errorf("got %v", got)
	}
	// Missing middle condition: no match.
	if got, _ := a.Match([]int{1, 5}); len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

func TestAESEmptyMatch(t *testing.T) {
	a := NewAES()
	if got, probes := a.Match(nil); len(got) != 0 || probes != 0 {
		t.Errorf("got %v probes=%d", got, probes)
	}
}

func TestAESProbesBounded(t *testing.T) {
	// Probes depend on satisfied conditions and activated tables, not on
	// total subscriptions sharing no conditions with the document.
	a := NewAES()
	for i := 0; i < 1000; i++ {
		if err := a.Insert([]int{10 + i}, i); err != nil {
			t.Fatal(err)
		}
	}
	_, probes := a.Match([]int{5}) // condition 5 is in no subscription
	if probes != 1 {
		t.Errorf("probes = %d, want 1 (single root probe)", probes)
	}
}

// Property: brute-force subset check agrees with the hash-tree. The
// draws span few and many matches (up to a few hundred, past sortMax, so
// both of ascending's paths run), dense and spread-out handles, and
// handle ranges with gaps left by Delete.
func TestQuickAESMatchesBruteForce(t *testing.T) {
	bitmapped := 0 // draws whose matches ascending orders by bitmap
	f := func(seed int64) bool {
		rnd := newRand(seed)
		a := NewAES()
		type entry struct {
			seq []int
			id  int
		}
		var subs []entry
		nconds := 8
		n, stride, base := 12+rnd.Intn(400), 1+rnd.Intn(3)*rnd.Intn(100), rnd.Intn(1000)-500
		for i := 0; i < n; i++ {
			var seq []int
			for c := 0; c < nconds; c++ {
				if rnd.Intn(3) == 0 {
					seq = append(seq, c)
				}
			}
			if len(seq) == 0 {
				continue
			}
			id := base + i*stride
			if err := a.Insert(seq, id); err != nil {
				return false
			}
			subs = append(subs, entry{seq, id})
		}
		kept := subs[:0]
		for _, s := range subs {
			if rnd.Intn(4) == 0 {
				if !a.Delete(s.seq, s.id) {
					return false
				}
				continue
			}
			kept = append(kept, s)
		}
		var satisfied []int
		for c := 0; c < nconds; c++ {
			if rnd.Intn(4) != 0 {
				satisfied = append(satisfied, c)
			}
		}
		got, _ := a.Match(satisfied)
		sat := make(map[int]bool)
		for _, c := range satisfied {
			sat[c] = true
		}
		var want []int
		for _, s := range kept {
			all := true
			for _, c := range s.seq {
				if !sat[c] {
					all = false
					break
				}
			}
			if all {
				want = append(want, s.id)
			}
		}
		sort.Ints(want)
		if n := len(want); n > sortMax && (want[n-1]-want[0])/64 < n {
			bitmapped++
		}
		return fmt.Sprint(got) == fmt.Sprint(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if bitmapped < 30 {
		t.Errorf("only %d of 300 draws ordered their matches by bitmap", bitmapped)
	}
}

// TestAscending holds ascending to a sort and compaction on lists short
// and long, dense and sparse, with duplicates and negative handles, and
// requires it to leave the bitmap zeroed.
func TestAscending(t *testing.T) {
	rnd := newRand(7)
	var bitmap []uint64
	for i := 0; i < 2000; i++ {
		n, span := rnd.Intn(300), 1+rnd.Intn(1+rnd.Intn(4)*rnd.Intn(5000))
		hs := make([]int, n)
		for j := range hs {
			hs[j] = rnd.Intn(span) - span/3
		}
		want := slices.Compact(slices.Sorted(slices.Values(hs)))
		if got := ascending(hs, &bitmap); !slices.Equal(got, want) {
			t.Fatalf("ascending of %d handles over %d: %v, want %v", n, span, got, want)
		}
		if slices.ContainsFunc(bitmap, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("ascending of %d handles over %d left marks in the bitmap", n, span)
		}
	}
}

// TestAESMatchAllocs pins AES.Match at its result: the handles are
// collected and ordered in the pooled scratch, so no size of tree costs a
// growing slice or a sort.
func TestAESMatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops entries at random, so the scratch is rebuilt")
	}
	satisfied := []int{3, 7, 12, 25, 31, 44, 58}
	for _, n := range []int{1000, 10000, 100000} {
		a := NewAES()
		rnd := newRand(1)
		for i := 0; i < n; i++ {
			var seq []int
			for c := 0; c < 60; c++ {
				if rnd.Intn(20) == 0 {
					seq = append(seq, c)
				}
			}
			if len(seq) == 0 {
				seq = []int{i % 60}
			}
			if err := a.Insert(seq, i); err != nil {
				t.Fatal(err)
			}
		}
		if got, _ := a.Match(satisfied); len(got) == 0 {
			t.Fatalf("%d subscriptions: no match, the pin would measure nothing", n)
		}
		runtime.GC() // one due inside the measurement would empty the pool
		if allocs := testing.AllocsPerRun(100, func() { a.Match(satisfied) }); allocs != 1 {
			t.Errorf("%d subscriptions: AES.Match allocates %v times, want 1", n, allocs)
		}
	}
}

type lcg struct{ state uint64 }

func newRand(seed int64) *lcg { return &lcg{state: uint64(seed)*2862933555777941757 + 3037000493} }

func (l *lcg) Intn(n int) int {
	l.state = l.state*6364136223846793005 + 1442695040888963407
	return int((l.state >> 33) % uint64(n))
}
