package peer

import (
	"fmt"
	"sort"
	"time"

	"p2pm/internal/telemetry"
)

// Config configures a System. It groups the former flat Options into
// functional sub-structs (DHT placement, aggregation trees, the replay/
// checkpoint layer) and is validated by NewSystem. It is fixed at
// construction: the adaptive controllers (docs/ADAPTIVE.md) actuate
// through System.Tuning, which moves placement and replication, not
// these fields.
type Config struct {
	// Seed is the System's seed: a gossip supervisor started without one
	// draws its probe order from it. It does not seed the simulated
	// network's coordinates — every System's network starts from
	// simnet.DefaultOptions, seed 1.
	Seed int64
	// Reuse enables the Section 5 stream-reuse pass on new subscriptions.
	Reuse bool
	// Pushdown enables selection pushdown (disable only for baselines).
	Pushdown bool
	// DHT configures the stream-definition database's ring placement.
	DHT DHTConfig
	// Agg configures aggregation-tree decomposition and the load-driven
	// re-chunking controller.
	Agg AggConfig
	// Replay configures the lossless-failover layer (replay buffers,
	// cursors, operator checkpoints).
	Replay ReplayConfig
	// Telemetry opts the system into the metrics registry
	// (docs/TELEMETRY.md). The zero value exports nothing; the layers
	// count the same either way.
	Telemetry TelemetryConfig
}

// TelemetryConfig wires a System into a telemetry registry. Enabled
// when either field is set; a non-empty Addr with a nil Registry uses
// telemetry.Default (the process-wide registry the p2pmon net mode
// exports).
type TelemetryConfig struct {
	// Addr, when non-empty, serves the registry over HTTP
	// (GET /metrics Prometheus text, /metrics.json JSON) for the
	// system's lifetime. ":0" picks a free port; read it back from
	// System.TelemetryAddr.
	Addr string
	// Registry receives the system's metrics. Tests pass a fresh
	// telemetry.NewRegistry() so concurrent systems never share series.
	Registry *telemetry.Registry
}

// enabled reports whether the system should instrument itself.
func (t TelemetryConfig) enabled() bool { return t.Registry != nil || t.Addr != "" }

// DHTConfig groups the stream-definition ring knobs.
type DHTConfig struct {
	// Replication is the number of copies the stream-definition database
	// keeps per key (owner + successors). Values > 1 let lookups survive
	// node crashes; <= 1 keeps a single copy. The starting value only:
	// the ring owns the number, and Tuning.SetDHTReplication moves it.
	Replication int
	// VirtualNodes gives every peer that many tokens on the ring instead
	// of one: key ownership fragments into small arcs, so a membership
	// change hands off ~K/n keys instead of whole successor arcs. <= 1
	// keeps classic placement.
	VirtualNodes int
	// LoadBound, when > 0, enables bounded-load placement: no peer holds
	// more than ceil(c·K/n) primary keys, capping its share of
	// checkpoint/descriptor traffic at ~c× the mean, and the per-reader
	// cache of resolved primary locations that shaves the successor scan
	// off repeat reads. 0 keeps plain successor placement.
	LoadBound float64
}

// AggConfig groups aggregation-tree construction and the adaptive
// re-chunking controller.
type AggConfig struct {
	// Degree, when > 1, makes the deploy planner decompose windowed
	// Group aggregation into a DHT-routed partial/merge fan-in tree
	// whenever the aggregated union fans in more than Degree branches.
	// 0 keeps every aggregation flat. See docs/AGGREGATION.md.
	Degree int
	// SplitRatio, when > 1, arms the load-driven re-chunking controller:
	// each Step it compares every first-level interior's ingest rate
	// against the tree mean, and an interior staying above
	// SplitRatio×mean for splitObservations consecutive Steps is split
	// in place (its children re-chunked under fresh sub-interiors,
	// exactly-once across the move). Requires the replay layer. 0
	// disables re-chunking.
	SplitRatio float64
	// SplitCooldown is the minimum virtual time between two splits in
	// the same task, bounding how fast the controller can reshape a
	// tree. Default 0 (no cooldown).
	SplitCooldown time.Duration
}

// ReplayConfig groups the lossless-failover layer.
type ReplayConfig struct {
	// Buffer, when > 0, makes every registered channel retain its last
	// Buffer published items for retransmission, and turns on the
	// consumer-side cursors and the per-Step anti-entropy sweep. 0 keeps
	// the lossy fail-stop delivery semantics. See docs/REPLAY.md.
	Buffer int
	// CheckpointInterval, when > 0, snapshots every stateful operator
	// each interval of virtual time into the DHT-replicated store;
	// failover restores operators from their checkpoint instead of
	// restarting them cold.
	CheckpointInterval time.Duration
}

// DefaultConfig enables the paper's full feature set, plus 2-way DHT
// replication so stream-definition lookups survive churn.
func DefaultConfig() Config {
	return Config{
		Seed:     1,
		Reuse:    true,
		Pushdown: true,
		DHT:      DHTConfig{Replication: 2},
	}
}

// normalize fills derived defaults (after validation).
func (c Config) normalize() Config {
	if c.Telemetry.Addr != "" && c.Telemetry.Registry == nil {
		c.Telemetry.Registry = telemetry.Default
	}
	return c
}

// validate rejects configurations that cannot work rather than letting
// them fail obscurely mid-run.
func (c Config) validate() error {
	if c.DHT.Replication < 0 {
		return fmt.Errorf("peer: DHT.Replication %d is negative", c.DHT.Replication)
	}
	if c.DHT.VirtualNodes < 0 {
		return fmt.Errorf("peer: DHT.VirtualNodes %d is negative", c.DHT.VirtualNodes)
	}
	if c.DHT.LoadBound < 0 {
		return fmt.Errorf("peer: DHT.LoadBound %g is negative", c.DHT.LoadBound)
	}
	if c.DHT.LoadBound > 0 && c.DHT.LoadBound < 1 {
		return fmt.Errorf("peer: DHT.LoadBound %g is below 1 (no peer could hold its fair share)", c.DHT.LoadBound)
	}
	if c.Agg.Degree < 0 || c.Agg.Degree == 1 {
		return fmt.Errorf("peer: Agg.Degree %d must be 0 (flat) or >= 2", c.Agg.Degree)
	}
	if c.Agg.SplitRatio < 0 {
		return fmt.Errorf("peer: Agg.SplitRatio %g is negative", c.Agg.SplitRatio)
	}
	if c.Agg.SplitRatio > 0 && c.Agg.SplitRatio <= 1 {
		return fmt.Errorf("peer: Agg.SplitRatio %g must exceed 1 (an interior at the mean must not split)", c.Agg.SplitRatio)
	}
	if c.Agg.SplitRatio > 0 && c.Replay.Buffer <= 0 {
		return fmt.Errorf("peer: Agg.SplitRatio needs the replay layer (Replay.Buffer > 0) for exactly-once re-chunking")
	}
	if c.Agg.SplitCooldown < 0 {
		return fmt.Errorf("peer: Agg.SplitCooldown %v is negative", c.Agg.SplitCooldown)
	}
	if c.Replay.Buffer < 0 {
		return fmt.Errorf("peer: Replay.Buffer %d is negative", c.Replay.Buffer)
	}
	if c.Replay.CheckpointInterval < 0 {
		return fmt.Errorf("peer: Replay.CheckpointInterval %v is negative", c.Replay.CheckpointInterval)
	}
	if c.Replay.CheckpointInterval > 0 && c.Replay.Buffer <= 0 {
		return fmt.Errorf("peer: Replay.CheckpointInterval needs Replay.Buffer > 0 (checkpoint resume replays from the buffers)")
	}
	return nil
}

// ---------------------------------------------------------------------
// Runtime tuning.

// Tuning is the actuation surface of a running System: the replication
// factor and the aggregation-host quarantine, the two things the stock
// adapt rules move mid-run (docs/ADAPTIVE.md). Everything else is fixed
// at construction by Config.
type Tuning struct{ s *System }

// Tuning returns the runtime control surface.
func (s *System) Tuning() Tuning { return Tuning{s: s} }

// SetDHTReplication changes the stream-definition replication factor
// (clamped to >= 1): the ring re-places every key at once.
func (t Tuning) SetDHTReplication(n int) { t.s.Ring.SetReplication(n) }

// QuarantineAggHost removes a peer from aggregation-tree interior
// placement (on top of any SetAggHosts filter) and rebalances running
// trees off it. The control action a flap-monitoring query triggers.
func (t Tuning) QuarantineAggHost(name string) {
	t.s.mu.Lock()
	changed := !t.s.quarantined[name]
	t.s.quarantined[name] = true
	t.s.mu.Unlock()
	if changed {
		t.s.RebalanceAggTrees()
	}
}

// LiftQuarantine re-admits a quarantined peer and rebalances trees
// (interiors whose DHT-derived home it is move back).
func (t Tuning) LiftQuarantine(name string) {
	t.s.mu.Lock()
	changed := t.s.quarantined[name]
	delete(t.s.quarantined, name)
	t.s.mu.Unlock()
	if changed {
		t.s.RebalanceAggTrees()
	}
}

// Quarantined lists currently quarantined aggregation hosts, sorted.
func (t Tuning) Quarantined() []string {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	out := make([]string, 0, len(t.s.quarantined))
	for name := range t.s.quarantined {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// gossipDetector returns the System's detector, nil before
// StartGossipDetector.
func (s *System) gossipDetector() *GossipDetector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.detector
}
