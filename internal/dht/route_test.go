package dht

import (
	"fmt"
	"math/rand"
	"testing"
)

// fingerBits is the identifier-space width: fingers are successors of
// n + 2^i for i < fingerBits.
const fingerBits = 64

// inOpen reports x ∈ (a, b) on the ring.
func inOpen(x, a, b ID) bool {
	if a < b {
		return x > a && x < b
	}
	if a > b {
		return x > a || x < b
	}
	return x != a
}

// refClosestPreceding is the finger scan closestPrecedingLocked replaced,
// kept verbatim as the reference: one ring search per identifier bit,
// highest first, returning the first finger strictly inside (cur, target).
func refClosestPreceding(r *Ring, cur int, target ID) int {
	curID := r.vnodes[cur].id
	for i := fingerBits - 1; i >= 0; i-- {
		fingerStart := curID + (ID(1) << uint(i))
		idx := r.insertionPoint(fingerStart)
		if idx == len(r.vnodes) {
			idx = 0
		}
		if id := r.vnodes[idx].id; id != curID && inOpen(id, curID, target) {
			return idx
		}
	}
	return cur
}

// refRoute is routeLocked over refClosestPreceding.
func refRoute(r *Ring, start *node, target ID) int {
	if len(r.vnodes) == 0 {
		return 0
	}
	cur := r.insertionPoint(start.id)
	if cur >= len(r.vnodes) {
		cur = 0
	}
	hops := 0
	for steps := 0; steps <= len(r.vnodes); steps++ {
		succ := (cur + 1) % len(r.vnodes)
		if inHalfOpen(target, r.vnodes[cur].id, r.vnodes[succ].id) {
			if r.vnodes[succ].phys != r.vnodes[cur].phys {
				hops++
			}
			return hops
		}
		next := refClosestPreceding(r, cur, target)
		if next == cur {
			next = succ
		}
		if r.vnodes[next].phys != r.vnodes[cur].phys {
			hops++
		}
		cur = next
	}
	return hops
}

// TestRouteMatchesReference holds the two-search finger choice to the
// 64-step scan: the same finger from every (token, target) pair and the
// same hop count on every route, over random rings and the degenerate
// ones (1 member, 2 members, a target that is a token's own id).
func TestRouteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sizes := []int{1, 2, 3, 5, 16, 64, 200}
	for len(sizes) < 12 {
		sizes = append(sizes, 1+rng.Intn(200))
	}
	for _, virtual := range []int{1, 8, 32} {
		for _, members := range sizes {
			r := New()
			r.SetVirtual(virtual)
			// Half the rings use sequential names (FNV clusters those in a
			// sliver of the id space — the shape every test and benchmark
			// ring has), half random names.
			for i := 0; i < members; i++ {
				name := fmt.Sprintf("peer-%d", i)
				if members%2 == 0 {
					name = fmt.Sprintf("%x", rng.Uint64())
				}
				if err := r.Join(name); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < 2000; k++ {
				start := r.nodes[rng.Intn(len(r.nodes))]
				cur := rng.Intn(len(r.vnodes))
				target := ID(rng.Uint64())
				switch k % 8 {
				case 0: // a token's own id, often cur's
					target = r.vnodes[(cur+rng.Intn(2))%len(r.vnodes)].id
				case 1: // just either side of a token
					target = r.vnodes[rng.Intn(len(r.vnodes))].id + ID(rng.Intn(3)) - 1
				case 2: // a real key
					target = HashID(fmt.Sprintf("sig|inCOM(peer-%d)", k))
				}
				if got, want := r.closestPrecedingLocked(cur, target), refClosestPreceding(r, cur, target); got != want {
					t.Fatalf("virtual=%d members=%d: finger from token %d to %#x = %d, reference %d",
						virtual, members, cur, uint64(target), got, want)
				}
				if got, want := r.routeLocked(start, target), refRoute(r, start, target); got != want {
					t.Fatalf("virtual=%d members=%d: %s -> %#x takes %d hops, reference %d",
						virtual, members, start.name, uint64(target), got, want)
				}
			}
		}
	}
}
