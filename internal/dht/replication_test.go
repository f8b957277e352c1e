package dht

import (
	"fmt"
	"math/rand"
	"testing"
)

func ringWith(t *testing.T, k int, names ...string) *Ring {
	t.Helper()
	r := New()
	r.SetReplication(k)
	for _, n := range names {
		if err := r.Join(n); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestReplicationCopiesKeys(t *testing.T) {
	r := ringWith(t, 3, "a", "b", "c", "d", "e")
	for i := 0; i < 20; i++ {
		if err := r.Put(fmt.Sprintf("key-%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, n := range r.Nodes() {
		total += r.KeysAt(n)
	}
	if total != 20*3 {
		t.Errorf("total stored copies = %d, want 60", total)
	}
}

func TestFailLosesKeysWithoutReplication(t *testing.T) {
	r := ringWith(t, 1, "a", "b", "c")
	r.Put("k", "v")
	owner, _ := r.Owner("k")
	if err := r.Fail(owner); err != nil {
		t.Fatal(err)
	}
	vals, _, err := r.Get("", "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 0 {
		t.Errorf("unreplicated key survived its owner's crash: %v", vals)
	}
}

func TestFailKeepsKeysWithReplication(t *testing.T) {
	r := ringWith(t, 2, "a", "b", "c", "d", "e")
	for i := 0; i < 10; i++ {
		r.Put(fmt.Sprintf("key-%d", i), fmt.Sprintf("v%d", i))
	}
	// Crash every node but two, one at a time; with 2 copies per key and
	// re-replication after each failure, no key is ever lost.
	for _, victim := range []string{"a", "b", "c"} {
		if err := r.Fail(victim); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			key := fmt.Sprintf("key-%d", i)
			vals, _, err := r.Get("", key)
			if err != nil {
				t.Fatal(err)
			}
			if len(vals) != 1 || vals[0] != fmt.Sprintf("v%d", i) {
				t.Fatalf("after failing %s, %s = %v", victim, key, vals)
			}
		}
	}
	// Every surviving key is back at full replication.
	total := 0
	for _, n := range r.Nodes() {
		total += r.KeysAt(n)
	}
	if total != 10*2 {
		t.Errorf("copies after re-replication = %d, want 20", total)
	}
}

func TestFailFiresLeaveHook(t *testing.T) {
	r := ringWith(t, 2, "a", "b", "c")
	var left []string
	r.OnMembership(hookFuncs{join: func(string) {}, leave: func(p string) { left = append(left, p) }})
	if err := r.Fail("b"); err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || left[0] != "b" {
		t.Errorf("leave hooks = %v", left)
	}
	if err := r.Fail("b"); err == nil {
		t.Error("failing a non-member should error")
	}
}

func TestJoinAfterFailRestoresPlacement(t *testing.T) {
	r := ringWith(t, 2, "a", "b", "c")
	r.Put("k", "v1")
	r.Put("k", "v2")
	if err := r.Fail("b"); err != nil {
		t.Fatal(err)
	}
	if err := r.Join("d"); err != nil {
		t.Fatal(err)
	}
	vals, _, err := r.Get("d", "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != "v1" || vals[1] != "v2" {
		t.Errorf("values after churn = %v, want [v1 v2] in order", vals)
	}
}

// TestIncrementalPlacementInvariant hammers the ring with random
// membership churn and puts, checking after every operation that each
// key sits on exactly its replica set (min(k, nodes) copies) with all
// its values intact — i.e. the local neighborhood rebalance never
// under- or over-replicates compared to the placement rule.
func TestIncrementalPlacementInvariant(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		rng := rand.New(rand.NewSource(int64(40 + k)))
		r := New()
		r.SetReplication(k)
		members := []string{}
		expected := map[string][]string{}
		nextPeer, nextKey := 0, 0
		join := func() {
			name := fmt.Sprintf("n%d", nextPeer)
			nextPeer++
			if err := r.Join(name); err != nil {
				t.Fatal(err)
			}
			members = append(members, name)
		}
		for i := 0; i < 4; i++ {
			join()
		}
		for op := 0; op < 120; op++ {
			switch c := rng.Intn(4); {
			case c == 0 && len(members) < 12:
				join()
			case c == 1 && len(members) > k+2:
				i := rng.Intn(len(members))
				if err := r.Leave(members[i]); err != nil {
					t.Fatal(err)
				}
				members = append(members[:i], members[i+1:]...)
			case c == 2 && k >= 2 && len(members) > k+2:
				// With k copies and one failure at a time, no key may be
				// lost: re-replication restores the count before the
				// next churn event.
				i := rng.Intn(len(members))
				if err := r.Fail(members[i]); err != nil {
					t.Fatal(err)
				}
				members = append(members[:i], members[i+1:]...)
			default:
				key := fmt.Sprintf("key-%d", nextKey%15)
				nextKey++
				val := fmt.Sprintf("v%d", op)
				if err := r.Put(key, val); err != nil {
					t.Fatal(err)
				}
				expected[key] = append(expected[key], val)
			}
			// Invariant: every key readable with all values in order...
			for key, want := range expected {
				got, _, err := r.Get("", key)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("k=%d op=%d: %s = %v, want %v", k, op, key, got, want)
				}
			}
			// ...and exactly min(k, nodes) copies of each key overall.
			copies := 0
			for _, m := range members {
				copies += r.KeysAt(m)
			}
			wantPer := k
			if wantPer > len(members) {
				wantPer = len(members)
			}
			if copies != len(expected)*wantPer {
				t.Fatalf("k=%d op=%d: total copies = %d, want %d keys × %d",
					k, op, copies, len(expected), wantPer)
			}
		}
	}
}

func TestSetReplicationClampsAndRebalances(t *testing.T) {
	r := ringWith(t, 1, "a", "b", "c")
	r.Put("k", "v")
	r.SetReplication(0) // clamped to 1
	if got := r.Replication(); got != 1 {
		t.Errorf("replication = %d, want 1", got)
	}
	r.SetReplication(5) // more copies than nodes: one per node
	total := 0
	for _, n := range r.Nodes() {
		total += r.KeysAt(n)
	}
	if total != 3 {
		t.Errorf("copies = %d, want one per node", total)
	}
}

// TestRemoveClearsEveryCopy: Remove takes one value off a key at the
// primary and every replica, leaves the key's other values, and forgets
// a key it empties — with bounded-load placement, its primary count too.
func TestRemoveClearsEveryCopy(t *testing.T) {
	for _, bound := range []float64{0, 1.25} {
		r := ringWith(t, 3, "a", "b", "c", "d", "e")
		r.SetLoadBound(bound)
		r.Put("k", "v1")
		r.Put("k", "v2")
		r.Put("other", "v1")
		holders := r.Holders("k")
		owner, _ := r.Owner("k")
		primaries := r.PrimaryKeys(owner)
		r.Remove("k", "v1")
		for _, from := range []string{"a", "c", "e"} {
			if vals, _, _ := r.Get(from, "k"); len(vals) != 1 || vals[0] != "v2" {
				t.Errorf("bound %v: Get(%s) after removing v1 = %v, want [v2]", bound, from, vals)
			}
		}
		if got := r.Holders("k"); fmt.Sprint(got) != fmt.Sprint(holders) {
			t.Errorf("bound %v: holders %v, want %v", bound, got, holders)
		}
		r.Remove("k", "v2")
		if got := r.Holders("k"); len(got) != 0 {
			t.Errorf("bound %v: an emptied key is still held at %v", bound, got)
		}
		if bound > 0 && r.PrimaryKeys(owner) != primaries-1 {
			t.Errorf("bound %v: %s holds %d primaries, want %d", bound, owner, r.PrimaryKeys(owner), primaries-1)
		}
		if vals, _, _ := r.Get("a", "other"); len(vals) != 1 {
			t.Errorf("bound %v: another key lost its value: %v", bound, vals)
		}
	}
}
