package dht

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func ringOf(t *testing.T, n int) *Ring {
	t.Helper()
	r := New()
	for i := 0; i < n; i++ {
		if err := r.Join(fmt.Sprintf("peer-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestJoinLeaveBasics(t *testing.T) {
	r := New()
	if err := r.Join("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Join("a"); err == nil {
		t.Error("duplicate join accepted")
	}
	if r.Size() != 1 {
		t.Errorf("size = %d", r.Size())
	}
	if !r.Member("a") || r.Member("ghost") {
		t.Errorf("Member(a), Member(ghost) = %v, %v", r.Member("a"), r.Member("ghost"))
	}
	if n := testing.AllocsPerRun(100, func() { r.Member("a") }); n != 0 {
		t.Errorf("Member allocates %v times", n)
	}
	if err := r.Leave("ghost"); err == nil {
		t.Error("leaving a non-member accepted")
	}
	if err := r.Leave("a"); err != nil {
		t.Fatal(err)
	}
	if r.Size() != 0 {
		t.Errorf("size = %d", r.Size())
	}
	if r.Member("a") {
		t.Error("a is still a member after leaving")
	}
}

func TestPutGetSingleNode(t *testing.T) {
	r := ringOf(t, 1)
	if err := r.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	vals, hops, err := r.Get("", "k")
	if err != nil || len(vals) != 1 || vals[0] != "v" {
		t.Fatalf("vals=%v err=%v", vals, err)
	}
	if hops != 0 {
		t.Errorf("hops = %d on single node", hops)
	}
}

func TestPutGetManyNodes(t *testing.T) {
	r := ringOf(t, 50)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := r.Put(key, fmt.Sprintf("val-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		vals, _, err := r.Get("peer-0", key)
		if err != nil || len(vals) != 1 || vals[0] != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key %s: vals=%v err=%v", key, vals, err)
		}
	}
}

func TestAppendSemantics(t *testing.T) {
	r := ringOf(t, 5)
	r.Put("k", "v1")
	r.Put("k", "v2")
	vals, _, _ := r.Get("", "k")
	if len(vals) != 2 {
		t.Errorf("vals = %v", vals)
	}
}

func TestKeyMigrationOnJoin(t *testing.T) {
	r := ringOf(t, 5)
	for i := 0; i < 100; i++ {
		r.Put(fmt.Sprintf("key-%d", i), "v")
	}
	// Join more nodes: every key must remain reachable and live at its
	// current owner.
	for i := 5; i < 20; i++ {
		if err := r.Join(fmt.Sprintf("peer-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, n := range r.Nodes() {
		total += r.KeysAt(n)
	}
	if total != 100 {
		t.Errorf("total keys after joins = %d", total)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		vals, _, err := r.Get("", key)
		if err != nil || len(vals) != 1 {
			t.Fatalf("key %s lost after joins: %v %v", key, vals, err)
		}
		owner, _ := r.Owner(key)
		found := false
		for _, n := range r.Nodes() {
			if n == owner && r.KeysAt(n) > 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("owner %s of %s seems empty", owner, key)
		}
	}
}

func TestKeyMigrationOnLeave(t *testing.T) {
	r := ringOf(t, 20)
	for i := 0; i < 100; i++ {
		r.Put(fmt.Sprintf("key-%d", i), "v")
	}
	for i := 0; i < 15; i++ {
		if err := r.Leave(fmt.Sprintf("peer-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		vals, _, err := r.Get("", fmt.Sprintf("key-%d", i))
		if err != nil || len(vals) != 1 {
			t.Fatalf("key-%d lost after leaves: %v %v", i, vals, err)
		}
	}
}

func TestMembershipHooks(t *testing.T) {
	r := New()
	var events []string
	r.OnMembership(hookFuncs{
		join:  func(p string) { events = append(events, "join:"+p) },
		leave: func(p string) { events = append(events, "leave:"+p) },
	})
	r.Join("a")
	r.Join("b")
	r.Leave("a")
	want := "[join:a join:b leave:a]"
	if fmt.Sprint(events) != want {
		t.Errorf("events = %v", events)
	}
}

type hookFuncs struct {
	join, leave func(string)
}

func (h hookFuncs) NotifyJoin(p string)  { h.join(p) }
func (h hookFuncs) NotifyLeave(p string) { h.leave(p) }

func TestLookupHopsLogarithmic(t *testing.T) {
	// Chord's core property: expected hops ~ O(log n). With 512 nodes,
	// log2(n) = 9; the average must be well below a linear scan.
	r := ringOf(t, 512)
	totalHops := 0
	const lookups = 300
	for i := 0; i < lookups; i++ {
		_, hops, err := r.Get(fmt.Sprintf("peer-%d", i%512), fmt.Sprintf("probe-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		totalHops += hops
	}
	avg := float64(totalHops) / lookups
	if avg > 3*math.Log2(512) {
		t.Errorf("average hops %.1f exceeds 3·log2(n) = %.1f", avg, 3*math.Log2(512))
	}
	if avg < 1 {
		t.Errorf("average hops %.2f suspiciously low for 512 nodes", avg)
	}
	lk, hp := r.Stats()
	if lk != lookups || hp != uint64(totalHops) {
		t.Errorf("stats = %d/%d", lk, hp)
	}
}

func TestEmptyRingErrors(t *testing.T) {
	r := New()
	if err := r.Put("k", "v"); err == nil {
		t.Error("Put on empty ring accepted")
	}
	if _, _, err := r.Get("", "k"); err == nil {
		t.Error("Get on empty ring accepted")
	}
	if _, err := r.Owner("k"); err == nil {
		t.Error("Owner on empty ring accepted")
	}
}

func TestIntervalHelpers(t *testing.T) {
	// Non-wrapping.
	if !inHalfOpen(5, 1, 5) || inHalfOpen(1, 1, 5) || inHalfOpen(6, 1, 5) {
		t.Error("inHalfOpen non-wrap wrong")
	}
	// Wrapping.
	if !inHalfOpen(0, 10, 2) || !inHalfOpen(11, 10, 2) || inHalfOpen(5, 10, 2) {
		t.Error("inHalfOpen wrap wrong")
	}
	// Degenerate single node.
	if !inHalfOpen(7, 3, 3) {
		t.Error("single-node interval must contain everything")
	}
	if inOpen(3, 3, 3) || !inOpen(7, 3, 3) {
		t.Error("inOpen degenerate wrong")
	}
}

// Property: every key Get returns exactly what was Put, under any ring
// size, and the reported owner is consistent.
func TestQuickGetAfterPut(t *testing.T) {
	f := func(nNodes uint8, keys []string) bool {
		n := int(nNodes%30) + 1
		r := New()
		for i := 0; i < n; i++ {
			if err := r.Join(fmt.Sprintf("n%d", i)); err != nil {
				return false
			}
		}
		seen := make(map[string]int)
		for _, k := range keys {
			if k == "" {
				continue
			}
			r.Put(k, "v")
			seen[k]++
		}
		for k, count := range seen {
			vals, _, err := r.Get("", k)
			if err != nil || len(vals) != count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
