// Package telemetry is the process-wide metrics layer: a registry of
// named Counter/Gauge/Histogram series with lock-free atomic hot paths,
// snapshotted deterministically for export.
//
// Every layer of the monitor grew its own ad-hoc counters — transport
// endpoint stats, wire decode/drop counts, simnet byte accounting,
// gossip health scores, DHT service loads, per-operator ingest gauges.
// This package gives them one registry with one export story, so the
// multi-process `p2pmon net` mode is scrapeable over HTTP (JSON and
// Prometheus text format) and adapt.MetricsSysmon can publish the same
// snapshots as an ActiveXML stream an ordinary P2PML subscription
// watches — the monitor monitoring its own runtime the way the paper
// monitors peers. See docs/TELEMETRY.md.
//
// Design rules:
//
//   - Handles are registered once (name + labels) and then incremented
//     with zero allocations: Counter.Add is a single atomic add on a
//     pre-resolved pointer. Never register on a hot path.
//   - Snapshots are deterministic: series sort by (name, labels), and
//     both encodings are hand-written so the same operation history
//     yields byte-identical output.
//   - Values are integers. Durations are recorded in nanoseconds,
//     ratios as scaled integers (documented per metric); this is what
//     keeps encoding exact and snapshots comparable.
package telemetry

import (
	"sort"
	"strings"
	"sync/atomic"
)

// Label is one key=value dimension of a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing series handle. The zero value
// is usable: a layer keeps its counters as plain struct fields, reads
// them through its own accessors, and exports them — the same
// variables — with Registry.Attach. Registry.Counter hands out a
// counter the registry itself owns.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Zero allocations.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Zero allocations.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a series handle for a value that goes up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value. Zero allocations.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution handle: cumulative-style
// export, atomic per-bucket counts, zero allocations per Observe.
type Histogram struct {
	bounds  []int64 // inclusive upper bounds, ascending; implicit +Inf last
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
}

// Observe records one value. Zero allocations: a binary search over the
// fixed bounds plus three atomic adds.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bounds returns the bucket upper bounds (without the implicit +Inf).
func (h *Histogram) Bounds() []int64 { return append([]int64(nil), h.bounds...) }

// ExpBounds builds n histogram bounds starting at start, each factor
// times the previous — the usual latency/size bucket shape.
func ExpBounds(start int64, factor float64, n int) []int64 {
	out := make([]int64, 0, n)
	v := float64(start)
	for i := 0; i < n; i++ {
		b := int64(v)
		if len(out) > 0 && b <= out[len(out)-1] {
			b = out[len(out)-1] + 1
		}
		out = append(out, b)
		v *= factor
	}
	return out
}

// labelKey canonicalizes a label set: sorted by key, joined with
// non-printing separators so distinct sets cannot collide.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteString(l.Key)
		sb.WriteByte(0x1f)
		sb.WriteString(l.Value)
		sb.WriteByte(0x1e)
	}
	return sb.String()
}

// sortLabels returns a sorted copy of a label set.
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
