// The load-driven re-chunking controller: the monitor monitoring
// itself. Every Step it reads the ingest gauges the operator handles
// already keep, compares each first-level aggregation-tree interior
// against its tree's mean ingest rate, and splits an interior that
// stays hot for splitObservations consecutive Steps (hysteresis) —
// SplitInterior then reshapes the running tree exactly-once. The knobs
// live in AggConfig. See docs/ADAPTIVE.md.
package peer

import (
	"sort"
	"time"

	"p2pm/internal/algebra"
)

// The controller constants nothing in the tree ever tuned, like the
// gossip protocol's (gossip.go); docs/ADAPTIVE.md has the table.
const (
	// splitMinFanIn is the smallest interior fan-in the controller will
	// split (a split must leave every new interior with ≥ 2 children).
	splitMinFanIn = 4
	// splitObservations is the hysteresis depth: how many consecutive
	// over-ratio Steps an interior must accumulate before it is split.
	splitObservations = 3
)

// AggLoadEntry is one running operator instance's ingest gauge: items
// consumed across all inputs since deployment (replayed items included
// — they are real ingest work).
type AggLoadEntry struct {
	Task  string
	Peer  string
	Op    string
	Key   string // aggregation-tree routing key; "" for non-tree operators
	Items uint64
}

// AggLoad is the per-operator ingest snapshot, sorted by (Task, Key,
// Op, Peer) — the stats-style surface experiments and controllers read
// instead of reaching into task internals.
type AggLoad []AggLoadEntry

// ByPeer folds the snapshot into per-host totals.
func (l AggLoad) ByPeer() map[string]uint64 {
	out := make(map[string]uint64)
	for _, e := range l {
		out[e.Peer] += e.Items
	}
	return out
}

// Interiors filters the snapshot to key-routed aggregation-tree merge
// nodes — the fan-in hotspots the re-chunking controller watches.
func (l AggLoad) Interiors() AggLoad {
	var out AggLoad
	for _, e := range l {
		if e.Key != "" {
			out = append(out, e)
		}
	}
	return out
}

// MaxMean reports the hottest entry's ingest and the mean over the
// snapshot (0, 0 when empty) — the skew measure the aggregation
// experiments gate on.
func (l AggLoad) MaxMean() (max uint64, mean float64) {
	if len(l) == 0 {
		return 0, 0
	}
	var total uint64
	for _, e := range l {
		total += e.Items
		if e.Items > max {
			max = e.Items
		}
	}
	return max, float64(total) / float64(len(l))
}

// AggLoad snapshots every running operator instance's ingest across all
// live-managed tasks.
func (s *System) AggLoad() AggLoad {
	var out AggLoad
	for _, p := range s.livePeers() {
		for _, t := range sortedTasks(p) {
			for n, inst := range t.procs {
				out = append(out, AggLoadEntry{
					Task:  t.ID,
					Peer:  n.Peer,
					Op:    n.Op.String(),
					Key:   n.AggKey,
					Items: inst.handle.ItemsIn(),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.Peer != b.Peer {
			return a.Peer < b.Peer
		}
		return a.Items < b.Items
	})
	return out
}

// rechunkState is the controller's memory for one task.
type rechunkState struct {
	lastItems map[string]uint64 // interior key → ItemsIn at last observation
	overCount map[string]int    // interior key → consecutive over-ratio Steps
	splits    int
	lastSplit time.Duration
}

// startRechunkController registers the per-Step observe/decide/actuate
// loop. NewSystem calls it when Agg.SplitRatio is armed.
func (s *System) startRechunkController() {
	states := make(map[string]*rechunkState)
	s.OnStep(func(now time.Duration) {
		for _, p := range s.livePeers() {
			for _, t := range sortedTasks(p) {
				st := states[t.ID]
				if st == nil {
					st = &rechunkState{lastItems: map[string]uint64{}, overCount: map[string]int{}}
					states[t.ID] = st
				}
				s.rechunkTask(p, t, st, now)
			}
		}
	})
}

// rechunkTask runs one controller observation for one task: delta
// ingest per first-level interior since the last Step, compared against
// the mean over its peers. Only first-level interiors — those merging
// PartialAgg leaves directly — are observed: deeper merges and the
// Final root ingest nothing until teardown flush (MergeAgg emits on
// EOS), so mid-run their gauges carry no signal. At most one split per
// task per Step, the hottest qualifying interior first (key order
// breaking ties), with SplitCooldown spacing consecutive reshapes.
func (s *System) rechunkTask(p *Peer, t *Task, st *rechunkState, now time.Duration) {
	cfg := s.cfg.Agg
	type cand struct {
		n     *algebra.Node
		delta uint64
	}
	var cands []cand
	var total uint64
	t.Plan.Walk(func(n *algebra.Node) {
		if n.Op != algebra.OpMergeAgg || n.AggKey == "" {
			return
		}
		for _, in := range n.Inputs {
			if in.Op != algebra.OpPartialAgg {
				return
			}
		}
		inst := t.procs[n]
		if inst == nil {
			return
		}
		items := inst.handle.ItemsIn()
		delta := items - st.lastItems[n.AggKey]
		st.lastItems[n.AggKey] = items
		total += delta
		cands = append(cands, cand{n, delta})
	})
	if len(cands) < 2 {
		// A single interior has no peers to be hot relative to.
		return
	}
	mean := float64(total) / float64(len(cands))
	for _, c := range cands {
		over := mean > 0 &&
			float64(c.delta) > cfg.SplitRatio*mean &&
			len(c.n.Inputs) >= splitMinFanIn &&
			s.member(c.n.Peer)
		if over {
			st.overCount[c.n.AggKey]++
		} else {
			delete(st.overCount, c.n.AggKey)
		}
	}
	if st.splits > 0 && now-st.lastSplit < cfg.SplitCooldown {
		return
	}
	var best *cand
	for i := range cands {
		c := &cands[i]
		if st.overCount[c.n.AggKey] < splitObservations {
			continue
		}
		if best == nil || c.delta > best.delta ||
			(c.delta == best.delta && c.n.AggKey < best.n.AggKey) {
			best = c
		}
	}
	if best == nil {
		return
	}
	if _, err := p.splitInterior(t, best.n, now); err != nil {
		// A split that cannot run now (host died under us, replay gap)
		// retries naturally: the hysteresis counter stays armed.
		return
	}
	st.splits++
	st.lastSplit = now
	// The tree changed shape: stale hysteresis must not trigger on the
	// next observation's skewed deltas (the new sub-interiors start
	// their gauges at the cut).
	st.overCount = map[string]int{}
}
