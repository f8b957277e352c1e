package dht

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The classic (one token, unbounded) rebalance as it stood before Join,
// Leave and Fail all ran the full re-placement, kept verbatim as the
// reference TestRebalanceMatchesNeighborhoodReference compares against.
// It shares mergeVals — how the replicas' lists of one key merge — with
// the production path: what the reference pins is which copies move where.

// neighborhoodRebalanceLocked re-places the keys affected by a
// membership change at token position idx — the classic (one token per
// member, unbounded) path. A key's replica set is a contiguous run of
// successors of its hash, so only keys whose window crosses the change
// point can gain or lose a holder, and their surviving copies live
// within replication-1 positions before idx or replication positions
// after it — the rest of the ring is untouched. extra contributes the
// store of a gracefully departed node.
func (r *Ring) neighborhoodRebalanceLocked(idx int, extra map[string][]string) {
	r.invalidateReadCacheLocked()
	n := len(r.vnodes)
	if n == 0 {
		return
	}
	k := r.replication
	if k > n {
		k = n
	}
	span := 2 * k
	if span > n {
		span = n
	}
	start := ((idx-(k-1))%n + n) % n
	merged := make(map[string][]string)
	scanned := make([]*node, 0, span)
	for i := 0; i < span; i++ {
		nd := r.vnodes[(start+i)%n].phys
		scanned = append(scanned, nd)
		for key, vs := range nd.store {
			merged[key] = mergeVals(merged[key], vs)
		}
	}
	for key, vs := range extra {
		merged[key] = mergeVals(merged[key], vs)
	}
	for key, vs := range merged {
		desired := r.replicaSetLocked(HashID(key))
		inDesired := make(map[*node]bool, len(desired))
		for _, d := range desired {
			inDesired[d] = true
			if _, had := d.store[key]; !had {
				r.handoffs.Inc()
			}
			d.store[key] = append([]string(nil), vs...)
		}
		for _, s := range scanned {
			if !inDesired[s] {
				delete(s.store, key)
			}
		}
	}
}

// refJoin is Join on the classic path: the base token's index anchors
// the neighborhood rebalance.
func (r *Ring) refJoin(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byKey[name]; dup {
		return fmt.Errorf("dht: %s already joined", name)
	}
	n := &node{id: HashID(name), name: name, store: make(map[string][]string)}
	nidx := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].id >= n.id })
	r.nodes = append(r.nodes, nil)
	copy(r.nodes[nidx+1:], r.nodes[nidx:])
	r.nodes[nidx] = n
	r.byKey[name] = n
	r.insertVnodesLocked(n)
	r.neighborhoodRebalanceLocked(r.insertionPoint(n.id), nil)
	return nil
}

// refRemove is Leave (graceful) or Fail on the classic path: the index
// the base token occupied anchors the neighborhood rebalance.
func (r *Ring) refRemove(name string, graceful bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.byKey[name]
	if !ok {
		return fmt.Errorf("dht: %s is not a member", name)
	}
	delete(r.byKey, name)
	idx := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].id >= n.id })
	r.nodes = append(r.nodes[:idx], r.nodes[idx+1:]...)
	base := r.insertionPoint(n.id)
	r.removeVnodesLocked(n)
	if base > len(r.vnodes) {
		base = len(r.vnodes)
	}
	var extra map[string][]string
	if graceful {
		extra = n.store
	}
	r.neighborhoodRebalanceLocked(base, extra)
	return nil
}

// stores snapshots every member's store by name.
func (r *Ring) stores() map[string]map[string][]string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]map[string][]string, len(r.nodes))
	for _, n := range r.nodes {
		out[n.name] = n.store
	}
	return out
}

// TestRebalanceMatchesNeighborhoodReference: on classic rings the one
// rebalance path — full re-placement — leaves every member's store and
// the handoff count exactly where the neighborhood scan it replaced did,
// over seeded random Join / Leave / Fail / Put / Set / SetReplication
// sequences at replication 1 to 3 — values drawn from a small set, so a
// key's list repeats one now and then.
func TestRebalanceMatchesNeighborhoodReference(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := New(), New()
		k := 1 + int(seed%3)
		got.SetReplication(k)
		want.SetReplication(k)
		for op := 0; op < 80; op++ {
			name := names[rng.Intn(len(names))]
			key := fmt.Sprintf("%s|%d", []string{"ckpt", "def"}[rng.Intn(2)], rng.Intn(24))
			val := fmt.Sprintf("v%d", rng.Intn(6))
			var desc string
			var errGot, errWant error
			switch c := rng.Intn(10); {
			case c < 3:
				desc = "join " + name
				errGot, errWant = got.Join(name), want.refJoin(name)
			case c < 4:
				desc = "leave " + name
				errGot, errWant = got.Leave(name), want.refRemove(name, true)
			case c < 5:
				desc = "fail " + name
				errGot, errWant = got.Fail(name), want.refRemove(name, false)
			case c < 7:
				desc = "put " + key
				errGot, errWant = got.Put(key, val), want.Put(key, val)
			case c < 9:
				desc = "set " + key
				errGot, errWant = got.Set(key, val), want.Set(key, val)
			default:
				k = 1 + rng.Intn(3)
				desc = fmt.Sprintf("replication %d", k)
				got.SetReplication(k)
				want.SetReplication(k)
			}
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("seed %d op %d (%s): error %v, reference %v", seed, op, desc, errGot, errWant)
			}
			if g, w := got.stores(), want.stores(); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d op %d (%s), %d members: stores differ\n got: %v\nwant: %v", seed, op, desc, got.Size(), g, w)
			}
			if g, w := got.Handoffs(), want.Handoffs(); g != w {
				t.Fatalf("seed %d op %d (%s): %d handoffs, reference %d", seed, op, desc, g, w)
			}
		}
	}
}
