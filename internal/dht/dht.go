// Package dht implements the distributed hash table substrate that KadoP
// (the paper's P2P XML index, [3]) builds on: a Chord-style ring over a
// 64-bit identifier space with consistent hashing, finger-based greedy
// routing (hop counts are the scalability measure of bench C9), key
// migration on membership changes, and join/leave notification hooks that
// feed the paper's areRegistered membership stream.
//
// Two elasticity mechanisms ride on top of the plain ring (both off by
// default, so the classic single-token placement stays available as the
// experimental baseline):
//
//   - Virtual nodes (SetVirtual): every peer owns v tokens on the ring
//     instead of one, so key ownership fragments into small arcs and a
//     join/leave hands off only ~K/n keys instead of a whole successor
//     arc. Handoffs() counts the copies that actually moved.
//
//   - Bounded-load placement (SetLoadBound): a key's primary copy goes to
//     the first successor whose primary-key count is below c·K/n
//     (consistent hashing with bounded loads), which caps any node's
//     share of the checkpoint/descriptor write traffic at c× the mean —
//     the anti-hotspot guarantee the X3 experiment measures.
//
// The ring's state lives in one process — the routing *metric* (hops,
// per-node key placement) is simulated faithfully while transport is
// in-memory, consistent with the simnet substitution documented in the
// README.
package dht

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"

	"p2pm/internal/telemetry"
)

// ID is a position on the ring.
type ID uint64

// HashID maps a string to its ring position.
func HashID(s string) ID {
	h := fnv.New64a()
	h.Write([]byte(s))
	return ID(h.Sum64())
}

// vnodeID is the ring position of a peer's i-th virtual token. Token 0
// keeps the peer's classic position, so enabling virtual nodes only adds
// arcs — it never moves the base token.
func vnodeID(name string, i int) ID {
	if i == 0 {
		return HashID(name)
	}
	return HashID(name + "#" + strconv.Itoa(i))
}

// MembershipHook observes peers joining and leaving the ring.
type MembershipHook interface {
	NotifyJoin(peer string)
	NotifyLeave(peer string)
}

// Load counts the DHT requests a node served as a key's primary holder —
// the per-peer service cost the spreading mechanisms bound.
type Load struct {
	Puts uint64
	Gets uint64
}

// Total is puts plus gets.
func (l Load) Total() uint64 { return l.Puts + l.Gets }

type node struct {
	id    ID
	name  string
	store map[string][]string
	// primaries counts, per key class, the keys whose primary copy this
	// node holds (maintained in bounded-load mode, where placement must
	// respect it). The bound is per class: key classes have wildly
	// different write rates (a checkpoint key is rewritten every sweep,
	// a descriptor once), so capping the mixed total would still let
	// one node hoard the hot class.
	primaries map[string]int
	// served accumulates request counters by key class ("ckpt", "def",
	// "replica", ...).
	served map[string]*Load
}

func (n *node) primaryCount(class string) int {
	return n.primaries[class]
}

func (n *node) addPrimary(class string) {
	if n.primaries == nil {
		n.primaries = make(map[string]int)
	}
	n.primaries[class]++
}

func (n *node) serve(class string) *Load {
	if n.served == nil {
		n.served = make(map[string]*Load)
	}
	l := n.served[class]
	if l == nil {
		l = &Load{}
		n.served[class] = l
	}
	return l
}

// keyClass buckets keys by their index-namespace prefix (up to the first
// '|'), matching kadop's key scheme; the whole key when it has none.
func keyClass(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '|' {
			return key[:i]
		}
	}
	return key
}

// vnode is one ring token: a position owned by a physical node.
type vnode struct {
	id   ID
	phys *node
}

// Ring is a Chord-style DHT.
type Ring struct {
	mu          sync.RWMutex
	nodes       []*node // physical members, sorted by base id
	vnodes      []vnode // ring tokens, sorted by id
	byKey       map[string]*node
	hooks       []MembershipHook
	replication int     // copies per key: primary + replication-1 distinct successors
	virtual     int     // ring tokens per member (1 = classic placement)
	loadBound   float64 // bounded-load capacity factor c (0 = unbounded)
	primary     map[string]*node
	classKeys   map[string]int // distinct keys per class (bounded mode)

	// readCache, when enabled, remembers per reader which member served
	// a key's primary copy, so repeat bounded-load reads skip the
	// successor-scan hops past full members. Any membership or placement
	// change invalidates it wholesale — a cached holder is only ever
	// trusted if it is still a member and still stores the key.
	readCache map[string]map[string]*node

	// The ring's service counters since construction: what Stats,
	// Handoffs and ReadCacheHits read and Instrument exports.
	puts, gets, handoffs, cacheHits, lookups, hops telemetry.Counter
}

// Instrument exports the ring's service counters as dht_puts_total,
// dht_gets_total, dht_handoffs_total, dht_cache_hits_total,
// dht_lookups_total and dht_hops_total. Idempotent.
func (r *Ring) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Attach("dht_puts_total", &r.puts)
	reg.Attach("dht_gets_total", &r.gets)
	reg.Attach("dht_handoffs_total", &r.handoffs)
	reg.Attach("dht_cache_hits_total", &r.cacheHits)
	reg.Attach("dht_lookups_total", &r.lookups)
	reg.Attach("dht_hops_total", &r.hops)
}

// New returns an empty ring with no replication (one copy per key), one
// token per member, and unbounded placement.
func New() *Ring {
	return &Ring{
		byKey:       make(map[string]*node),
		replication: 1,
		virtual:     1,
		primary:     make(map[string]*node),
		classKeys:   make(map[string]int),
	}
}

// SetReplication sets the number of copies kept per key (primary plus
// k-1 distinct successors) and rebalances existing keys. k < 1 is
// clamped to 1. Replication is what lets stream-definition lookups keep
// working when a node crashes (Fail) instead of leaving gracefully.
func (r *Ring) SetReplication(k int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if k < 1 {
		k = 1
	}
	r.replication = k
	r.rebalanceLocked(nil)
}

// Replication returns the configured copies per key.
func (r *Ring) Replication() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.replication
}

// SetVirtual sets the number of ring tokens per member (clamped to >= 1)
// and rebalances: existing arcs fragment, so subsequent joins and leaves
// hand off ~K/n keys instead of whole successor arcs. v = 1 restores the
// classic one-token placement.
func (r *Ring) SetVirtual(v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v < 1 {
		v = 1
	}
	if v == r.virtual {
		return
	}
	r.virtual = v
	r.rebuildVnodesLocked()
	r.rebalanceLocked(nil)
}

// SetLoadBound enables bounded-load placement: a key's primary copy goes
// to the first successor holding fewer than ceil(c·K/n) primaries, so no
// member's share of the write/read traffic exceeds ~c× the mean. c <= 0
// disables the bound. Changing the bound re-places every key.
func (r *Ring) SetLoadBound(c float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c < 0 {
		c = 0
	}
	if c == r.loadBound {
		return
	}
	r.loadBound = c
	r.rebalanceLocked(nil)
}

// LoadBound returns the bounded-load capacity factor (0 = unbounded).
func (r *Ring) LoadBound() float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.loadBound
}

// EnableReadCache turns on per-reader caching of resolved primary
// locations for the bounded-load read path: the first Get pays the
// successor-scan hops past full members, repeats from the same reader
// go straight to the remembered holder. The cache is invalidated on
// every membership or placement change (join, leave, fail, rebalance),
// so it can serve stale routes only within one membership epoch — and
// even then a hit is verified against the live store before trusting it.
func (r *Ring) EnableReadCache() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.readCache == nil {
		r.readCache = make(map[string]map[string]*node)
	}
}

// ReadCacheHits returns how many bounded-load reads the location cache
// short-circuited.
func (r *Ring) ReadCacheHits() uint64 { return r.cacheHits.Value() }

// invalidateReadCacheLocked drops every cached location (membership or
// placement changed).
func (r *Ring) invalidateReadCacheLocked() {
	if r.readCache != nil && len(r.readCache) > 0 {
		r.readCache = make(map[string]map[string]*node)
	}
}

// cachedHolderLocked returns the remembered holder of key for reader,
// if it is still a member whose store has the key.
func (r *Ring) cachedHolderLocked(reader, key string) *node {
	if r.readCache == nil || reader == "" {
		return nil
	}
	n := r.readCache[reader][key]
	if n == nil || r.byKey[n.name] != n || len(n.store[key]) == 0 {
		return nil
	}
	return n
}

func (r *Ring) rememberHolderLocked(reader, key string, n *node) {
	if r.readCache == nil || reader == "" || n == nil {
		return
	}
	m := r.readCache[reader]
	if m == nil {
		m = make(map[string]*node)
		r.readCache[reader] = m
	}
	m[key] = n
}

// OnMembership registers a membership hook.
func (r *Ring) OnMembership(h MembershipHook) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, h)
}

// Size returns the number of members.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Member reports whether name is on the ring.
func (r *Ring) Member(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.byKey[name]
	return ok
}

// Nodes returns member names in base-token ring order.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.nodes))
	for i, n := range r.nodes {
		out[i] = n.name
	}
	return out
}

// Join adds a peer to the ring, migrating the keys it now owns from its
// successors, and fires join hooks. The handoff is a deterministic full
// re-placement (sorted key order) whatever the placement; the number of
// copies that actually moved is visible via Handoffs().
func (r *Ring) Join(name string) error {
	r.mu.Lock()
	if _, dup := r.byKey[name]; dup {
		r.mu.Unlock()
		return fmt.Errorf("dht: %s already joined", name)
	}
	n := &node{id: HashID(name), name: name, store: make(map[string][]string)}
	if prev := r.findByID(n.id); prev != nil {
		r.mu.Unlock()
		return fmt.Errorf("dht: id collision between %s and %s", name, prev.name)
	}
	nidx := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].id >= n.id })
	r.nodes = append(r.nodes, nil)
	copy(r.nodes[nidx+1:], r.nodes[nidx:])
	r.nodes[nidx] = n
	r.byKey[name] = n
	r.insertVnodesLocked(n)
	r.rebalanceLocked(nil)
	hooks := append([]MembershipHook(nil), r.hooks...)
	r.mu.Unlock()
	for _, h := range hooks {
		h.NotifyJoin(name)
	}
	return nil
}

// Leave removes a peer gracefully, migrating its keys to their new
// owners, and fires leave hooks.
func (r *Ring) Leave(name string) error {
	return r.remove(name, true)
}

// Fail removes a crashed peer: unlike Leave, the node gets no chance to
// migrate its store — its copies are simply gone. Keys survive only if
// replication keeps other copies; the rebalance re-replicates them onto
// the new replica sets so lookups keep working during churn. Leave hooks
// fire (the membership stream reports the departure either way).
func (r *Ring) Fail(name string) error {
	return r.remove(name, false)
}

func (r *Ring) remove(name string, graceful bool) error {
	r.mu.Lock()
	n, ok := r.byKey[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("dht: %s is not a member", name)
	}
	delete(r.byKey, name)
	idx := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].id >= n.id })
	r.nodes = append(r.nodes[:idx], r.nodes[idx+1:]...)
	r.removeVnodesLocked(n)
	extra := n.store
	if !graceful {
		// A crashed node's copies are lost; surviving replicas re-seed the
		// new replica sets.
		extra = nil
	}
	r.rebalanceLocked(extra)
	hooks := append([]MembershipHook(nil), r.hooks...)
	r.mu.Unlock()
	for _, h := range hooks {
		h.NotifyLeave(name)
	}
	return nil
}

// rebuildVnodesLocked regenerates every member's tokens (after a
// SetVirtual change).
func (r *Ring) rebuildVnodesLocked() {
	r.vnodes = r.vnodes[:0]
	for _, n := range r.nodes {
		r.insertVnodesLocked(n)
	}
}

// insertVnodesLocked adds a member's tokens to the sorted token list.
// Token-id collisions with already-placed tokens are skipped (FNV
// collisions across 64 bits are vanishingly rare; dropping a secondary
// token only costs balance).
func (r *Ring) insertVnodesLocked(n *node) {
	for i := 0; i < r.virtual; i++ {
		id := vnodeID(n.name, i)
		idx := sort.Search(len(r.vnodes), func(j int) bool { return r.vnodes[j].id >= id })
		if idx < len(r.vnodes) && r.vnodes[idx].id == id {
			continue
		}
		r.vnodes = append(r.vnodes, vnode{})
		copy(r.vnodes[idx+1:], r.vnodes[idx:])
		r.vnodes[idx] = vnode{id: id, phys: n}
	}
}

// removeVnodesLocked drops a member's tokens.
func (r *Ring) removeVnodesLocked(n *node) {
	kept := r.vnodes[:0]
	for _, v := range r.vnodes {
		if v.phys != n {
			kept = append(kept, v)
		}
	}
	r.vnodes = kept
}

// capacityLocked is the per-class bounded-load primary cap for a ring
// holding keys distinct keys of that class: ceil(c·keys/n), at least 1.
func (r *Ring) capacityLocked(keys int) int {
	if r.loadBound <= 0 || len(r.nodes) == 0 {
		return int(^uint(0) >> 1)
	}
	cap := int(math.Ceil(r.loadBound * float64(keys) / float64(len(r.nodes))))
	if cap < 1 {
		cap = 1
	}
	return cap
}

// rebalanceLocked reassigns every stored key to its current replica set.
// extra, when non-nil, contributes the store of a gracefully departing
// node. Keys are placed in sorted order so bounded-load placement (which
// depends on placement order) is deterministic. Values keep their order
// (readers rely on "latest wins"); the replicas' lists merge into one,
// identical values once. Copies outside the new replica set are dropped,
// a copy landing on a node that did not hold the key counts as a handoff,
// and a holder whose list already matches is left alone.
func (r *Ring) rebalanceLocked(extra map[string][]string) {
	r.invalidateReadCacheLocked()
	clear(r.primary)
	clear(r.classKeys)
	for _, n := range r.nodes {
		n.primaries = nil
	}
	if len(r.nodes) == 0 {
		return
	}
	merged := make(map[string][]string)
	for _, n := range r.nodes {
		for k, vs := range n.store {
			merged[k] = mergeVals(merged[k], vs)
		}
	}
	for k, vs := range extra {
		merged[k] = mergeVals(merged[k], vs)
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	classTotal := make(map[string]int)
	for _, k := range keys {
		classTotal[keyClass(k)]++
	}
	sets := make(map[string][]*node, len(keys))
	for _, k := range keys {
		sets[k] = r.assignLocked(k, r.capacityLocked(classTotal[keyClass(k)]))
	}
	for _, n := range r.nodes {
		for k := range n.store {
			if !slices.Contains(sets[k], n) {
				delete(n.store, k)
			}
		}
	}
	for _, k := range keys {
		for _, n := range sets[k] {
			old, had := n.store[k]
			if !had {
				r.handoffs.Inc()
			}
			if !slices.Equal(old, merged[k]) {
				n.store[k] = slices.Clone(merged[k])
			}
		}
	}
}

// mergeVals appends the values of src not already in dst, preserving
// order. Replicas that agree merge without a copy: the result may share
// src's array, so callers clone before storing it.
func mergeVals(dst, src []string) []string {
	if dst == nil || slices.Equal(dst, src) {
		return slices.Clip(src)
	}
	seen := make(map[string]bool, len(dst))
	for _, v := range dst {
		seen[v] = true
	}
	for _, v := range src {
		if !seen[v] {
			dst = append(dst, v)
			seen[v] = true
		}
	}
	return dst
}

// distinctSuccessorsLocked walks the token ring from id's successor and
// returns up to max distinct physical members in encounter order.
func (r *Ring) distinctSuccessorsLocked(id ID, max int) []*node {
	if len(r.vnodes) == 0 || max <= 0 {
		return nil
	}
	if max > len(r.nodes) {
		max = len(r.nodes)
	}
	idx := r.insertionPoint(id)
	if idx == len(r.vnodes) {
		idx = 0
	}
	out := make([]*node, 0, max)
	seen := make(map[*node]bool, max)
	for i := 0; i < len(r.vnodes) && len(out) < max; i++ {
		p := r.vnodes[(idx+i)%len(r.vnodes)].phys
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// replicaSetLocked returns the nodes holding a key placed at its hash:
// the successor owner and the next replication-1 distinct members.
func (r *Ring) replicaSetLocked(id ID) []*node {
	k := r.replication
	if k > len(r.nodes) {
		k = len(r.nodes)
	}
	return r.distinctSuccessorsLocked(id, k)
}

// assignLocked chooses a key's replica set fresh (rebalance, or first
// write of a new key): the primary is the first successor below the
// bounded-load capacity (the plain successor when unbounded, or when
// every member is at capacity), replicas are the next distinct members
// after it. Bounded placement records the primary and its load count
// (unbounded placement reads neither).
func (r *Ring) assignLocked(key string, cap int) []*node {
	// Unbounded placement needs only the replica-set prefix; the full
	// distinct-member walk is materialized only when the bounded walk
	// may have to skip past full members.
	want := r.replication
	if r.loadBound > 0 {
		want = len(r.nodes)
	}
	physes := r.distinctSuccessorsLocked(HashID(key), want)
	if len(physes) == 0 {
		return nil
	}
	class := keyClass(key)
	pi := 0
	if r.loadBound > 0 {
		for i, p := range physes {
			if p.primaryCount(class) < cap {
				pi = i
				break
			}
		}
	}
	k := r.replication
	if k > len(physes) {
		k = len(physes)
	}
	out := make([]*node, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, physes[(pi+i)%len(physes)])
	}
	if r.loadBound > 0 {
		r.primary[key] = out[0]
		out[0].addPrimary(class)
		r.classKeys[class]++
	}
	return out
}

// placeLocked resolves a key's replica set for a write: the recorded
// bounded-load placement when one exists (placement is sticky between
// membership changes), a fresh assignment for a new key, or the plain
// hash replica set when unbounded.
func (r *Ring) placeLocked(key string) []*node {
	if len(r.nodes) == 0 {
		return nil
	}
	if r.loadBound <= 0 {
		return r.replicaSetLocked(HashID(key))
	}
	if p, ok := r.primary[key]; ok && r.byKey[p.name] == p {
		physes := r.distinctSuccessorsLocked(HashID(key), len(r.nodes))
		for i, cand := range physes {
			if cand == p {
				k := r.replication
				if k > len(physes) {
					k = len(physes)
				}
				out := make([]*node, 0, k)
				for j := 0; j < k; j++ {
					out = append(out, physes[(i+j)%len(physes)])
				}
				return out
			}
		}
	}
	return r.assignLocked(key, r.capacityLocked(r.classKeys[keyClass(key)]+1))
}

func (r *Ring) findByID(id ID) *node {
	idx := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].id >= id })
	if idx < len(r.nodes) && r.nodes[idx].id == id {
		return r.nodes[idx]
	}
	return nil
}

// insertionPoint locates id in the token ring.
func (r *Ring) insertionPoint(id ID) int {
	return sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].id >= id })
}

// ownerLocked returns the member whose token succeeds id (the hash
// owner of a key, before any bounded-load adjustment).
func (r *Ring) ownerLocked(id ID) *node {
	if len(r.vnodes) == 0 {
		return nil
	}
	idx := r.insertionPoint(id)
	if idx == len(r.vnodes) {
		idx = 0
	}
	return r.vnodes[idx].phys
}

// Owner returns the name of the node holding a key's primary copy: the
// recorded bounded-load placement when one exists, the hash owner
// otherwise.
func (r *Ring) Owner(key string) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.loadBound > 0 {
		if p, ok := r.primary[key]; ok && r.byKey[p.name] == p {
			return p.name, nil
		}
	}
	n := r.ownerLocked(HashID(key))
	if n == nil {
		return "", fmt.Errorf("dht: empty ring")
	}
	return n.name, nil
}

// Put appends a value under a key at the key's primary and, with
// replication enabled, at the replica successors.
func (r *Ring) Put(key, value string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.placeLocked(key)
	if len(set) == 0 {
		return fmt.Errorf("dht: empty ring")
	}
	for _, n := range set {
		n.store[key] = append(n.store[key], value)
	}
	set[0].serve(keyClass(key)).Puts++
	r.puts.Inc()
	return nil
}

// Set replaces the values stored under a key with the single given
// value, at the primary and every replica successor — the latest-wins
// single-record keys (operator checkpoints) that would otherwise grow
// one appended copy per write.
func (r *Ring) Set(key, value string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.placeLocked(key)
	if len(set) == 0 {
		return fmt.Errorf("dht: empty ring")
	}
	for _, n := range set {
		n.store[key] = []string{value}
	}
	set[0].serve(keyClass(key)).Puts++
	r.puts.Inc()
	return nil
}

// Holders returns the names of the nodes whose store currently holds the
// key, in base-token ring order — the replica-placement introspection
// the re-replication tests use.
func (r *Ring) Holders(key string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for _, n := range r.nodes {
		if len(n.store[key]) > 0 {
			out = append(out, n.name)
		}
	}
	return out
}

// Get returns all values stored under key and the routing hop count a
// real lookup from `from` would incur (greedy finger routing). An empty
// `from` starts at the first ring node. In bounded-load mode the lookup
// walks the successor list past full members until it finds the primary,
// paying one extra hop per member skipped — the read-side cost of the
// placement freedom.
func (r *Ring) Get(from, key string) ([]string, int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.nodes) == 0 {
		return nil, 0, fmt.Errorf("dht: empty ring")
	}
	target := HashID(key)
	start := r.nodes[0]
	if from != "" {
		if n, ok := r.byKey[from]; ok {
			start = n
		}
	}
	hops := r.routeLocked(start, target)
	r.lookups.Inc()
	r.hops.Add(uint64(hops))
	var vals []string
	var serving *node
	if r.loadBound > 0 {
		// The reader's location cache short-circuits the successor scan:
		// a remembered (and still valid) holder costs no extra hops.
		if n := r.cachedHolderLocked(from, key); n != nil {
			vals = append([]string(nil), n.store[key]...)
			serving = n
			r.cacheHits.Inc()
		}
		if serving == nil {
			for i, n := range r.distinctSuccessorsLocked(target, len(r.nodes)) {
				if len(n.store[key]) > 0 {
					vals = append([]string(nil), n.store[key]...)
					serving = n
					hops += i
					r.hops.Add(uint64(i))
					r.rememberHolderLocked(from, key, n)
					break
				}
			}
		}
		if serving == nil {
			serving = r.ownerLocked(target)
		}
	} else {
		owner := r.ownerLocked(target)
		serving = owner
		vals = append([]string(nil), owner.store[key]...)
		if len(vals) == 0 && r.replication > 1 {
			// Owner miss (e.g. mid-churn before a rebalance): one extra hop
			// to a replica successor still answers the lookup.
			for _, n := range r.replicaSetLocked(target)[1:] {
				if len(n.store[key]) > 0 {
					vals = append(vals, n.store[key]...)
					serving = n
					hops++
					r.hops.Inc()
					break
				}
			}
		}
	}
	serving.serve(keyClass(key)).Gets++
	r.gets.Inc()
	return vals, hops, nil
}

// routeLocked simulates Chord greedy routing from start to the owner of
// target, returning the hop count. Each step jumps to the closest
// preceding finger, computed on demand from the token ring (equivalent
// to fully-converged finger tables). Moving between two tokens of the
// same member costs nothing — virtual nodes add arcs, not network hops.
func (r *Ring) routeLocked(start *node, target ID) int {
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
		// Done when target ∈ (cur, successor(cur)].
		if inHalfOpen(target, r.vnodes[cur].id, r.vnodes[succ].id) {
			if r.vnodes[succ].phys != r.vnodes[cur].phys {
				hops++
			}
			return hops
		}
		next := r.closestPrecedingLocked(cur, target)
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

// closestPrecedingLocked returns the token index closest to (but
// preceding) target reachable from cur's fingers: the largest jump cur
// can make without overshooting.
//
// Finger i is the first token at clockwise distance ≥ 2^i from cur, so
// fingers are monotone in i, and finger i lies inside (cur, target)
// exactly when some token there is at distance ≥ 2^i — when 2^i ≤ reach,
// the distance of the last token before target. The answer is therefore
// finger ⌊log2 reach⌋: two searches instead of one per bit.
func (r *Ring) closestPrecedingLocked(cur int, target ID) int {
	curID := r.vnodes[cur].id
	last := r.insertionPoint(target) - 1
	if last < 0 {
		last = len(r.vnodes) - 1
	}
	reach := uint64(r.vnodes[last].id - curID)
	if reach == 0 {
		return cur // no token inside (cur, target)
	}
	idx := r.insertionPoint(curID + ID(1)<<(bits.Len64(reach)-1))
	if idx == len(r.vnodes) {
		idx = 0
	}
	return idx
}

// inHalfOpen reports x ∈ (a, b] on the ring.
func inHalfOpen(x, a, b ID) bool {
	if a < b {
		return x > a && x <= b
	}
	if a > b {
		return x > a || x <= b
	}
	return true // a == b: single token owns everything
}

// Successors returns up to max distinct member names starting at the
// key's hash owner, in ring-walk order — the candidate sequence that
// DHT-routed placement (aggregation-tree interiors) and bounded-load
// reads both walk. Deterministic per membership.
func (r *Ring) Successors(key string, max int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	nodes := r.distinctSuccessorsLocked(HashID(key), max)
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.name
	}
	return out
}

// Stats returns cumulative lookup count and total hops.
func (r *Ring) Stats() (lookups, hops uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lookups.Value(), r.hops.Value()
}

// Handoffs returns the cumulative number of key copies that moved to a
// new holder across membership changes — the rebalance cost the
// virtual-node fragmentation keeps incremental.
func (r *Ring) Handoffs() uint64 { return r.handoffs.Value() }

// ServiceLoad returns the per-member primary-copy request counters for
// one key class (e.g. "ckpt" for operator checkpoints). Every current
// member appears, including ones that served nothing — the denominator
// of the max-vs-mean spread measure.
func (r *Ring) ServiceLoad(class string) map[string]Load {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]Load, len(r.nodes))
	for _, n := range r.nodes {
		if l := n.served[class]; l != nil {
			out[n.name] = *l
		} else {
			out[n.name] = Load{}
		}
	}
	return out
}

// ResetServiceLoad zeroes every member's request counters (steady-state
// measurements that must exclude a warm-up or growth phase).
func (r *Ring) ResetServiceLoad() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.nodes {
		n.served = nil
	}
}

// KeysAt returns the number of keys stored on a node (placement check).
func (r *Ring) KeysAt(name string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n, ok := r.byKey[name]; ok {
		return len(n.store)
	}
	return 0
}

// PrimaryKeys returns the number of keys whose primary copy a member
// holds — the quantity bounded-load placement caps at ceil(c·K/n).
func (r *Ring) PrimaryKeys(name string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, ok := r.byKey[name]
	if !ok {
		return 0
	}
	if r.loadBound > 0 {
		total := 0
		for _, c := range n.primaries {
			total += c
		}
		return total
	}
	count := 0
	for key := range n.store {
		if r.ownerLocked(HashID(key)) == n {
			count++
		}
	}
	return count
}
