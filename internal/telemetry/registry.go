package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates the three series types.
type Kind uint8

// The three metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String renders the kind the way both encodings spell it.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// DefaultMaxSeries is the per-family label-cardinality guard: a metric
// name holds at most this many distinct label sets; further sets share
// one overflow series (labeled overflow="true") instead of growing the
// registry without bound. Raise per registry with SetMaxSeries.
const DefaultMaxSeries = 256

// overflowLabel marks the shared series label sets beyond the
// cardinality guard collapse into.
var overflowLabel = Label{Key: "overflow", Value: "true"}

// series is one registered (name, labels) instrument. A counter series
// reports the sum of ctrs: the one counter the registry allocated
// (Registry.Counter) and every counter a layer attached
// (Registry.Attach).
type series struct {
	labels []Label // sorted
	key    string
	ctrs   []*Counter
	gauge  *Gauge
	hist   *Histogram
}

// family groups every series of one metric name.
type family struct {
	name   string
	kind   Kind
	bounds []int64 // histograms: shared bucket bounds
	series map[string]*series
}

// Registry holds metric families and hands out series handles.
// Registration takes a lock and allocates; the returned handles are
// lock-free. A Registry is safe for concurrent use.
type Registry struct {
	mu        sync.Mutex
	families  map[string]*family
	order     []string // registration-independent: kept sorted
	collect   []func()
	maxSeries int
	// dropped counts label sets redirected to an overflow series by the
	// cardinality guard — the registry's own health metric.
	dropped Counter
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), maxSeries: DefaultMaxSeries}
}

// Default is the process-wide registry instrumented code uses unless a
// component was handed a specific one.
var Default = NewRegistry()

// SetMaxSeries adjusts the per-family cardinality guard (minimum 1).
func (r *Registry) SetMaxSeries(n int) {
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	r.maxSeries = n
	r.mu.Unlock()
}

// DroppedSeries returns how many label sets the cardinality guard
// redirected into overflow series.
func (r *Registry) DroppedSeries() uint64 { return r.dropped.Value() }

// Counter returns the counter registered under name with the given
// labels, creating it on first use. Same name + same labels → same
// handle. Registering a name that already exists with a different kind
// panics: metric names are a global namespace and a kind clash is a
// programming error that would corrupt every export.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.register(name, KindCounter, nil, labels, nil).ctrs[0]
}

// Attach exports a counter its owner keeps — a field of the layer that
// increments it — under name+labels: the layer owns the number, the
// registry reads it. A second counter attached under the same name and
// labels makes the series their sum (two rings, two detectors or two
// endpoints of one name on one registry report together, as they did
// when they shared a handle); attaching the same counter again is a
// no-op, so instrumenting twice is harmless. The kind clash and the
// cardinality guard apply as in Counter: counters attached past the
// guard sum into the overflow series.
func (r *Registry) Attach(name string, c *Counter, labels ...Label) {
	r.register(name, KindCounter, nil, labels, c)
}

// Gauge returns the gauge registered under name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.register(name, KindGauge, nil, labels, nil).gauge
}

// Histogram returns the histogram registered under name+labels with the
// given bucket bounds (ascending upper bounds; +Inf is implicit). The
// first registration of a name fixes the bounds; later ones may pass
// nil to reuse them.
func (r *Registry) Histogram(name string, bounds []int64, labels ...Label) *Histogram {
	return r.register(name, KindHistogram, bounds, labels, nil).hist
}

// register finds or creates the series. attach, when non-nil, is a
// layer-owned counter to add to it; a counter series created without
// one gets a counter of the registry's own.
func (r *Registry) register(name string, kind Kind, bounds []int64, labels []Label, attach *Counter) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		if kind == KindHistogram && len(bounds) == 0 {
			panic(fmt.Sprintf("telemetry: histogram %q needs bucket bounds", name))
		}
		f = &family{name: name, kind: kind, series: make(map[string]*series)}
		if kind == KindHistogram {
			f.bounds = append([]int64(nil), bounds...)
			if !sort.SliceIsSorted(f.bounds, func(i, j int) bool { return f.bounds[i] < f.bounds[j] }) {
				panic(fmt.Sprintf("telemetry: histogram %q bounds are not ascending", name))
			}
		}
		r.families[name] = f
		i := sort.SearchStrings(r.order, name)
		r.order = append(r.order, "")
		copy(r.order[i+1:], r.order[i:])
		r.order[i] = name
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (is %s)", name, kind, f.kind))
	}
	sorted := sortLabels(labels)
	key := labelKey(sorted)
	s := f.series[key]
	if s == nil && len(f.series) >= r.maxSeries {
		// Cardinality guard: collapse into the shared overflow series.
		r.dropped.Inc()
		sorted = []Label{overflowLabel}
		key = labelKey(sorted)
		s = f.series[key]
	}
	if s == nil {
		s = &series{labels: sorted, key: key}
		switch kind {
		case KindCounter:
			if attach == nil {
				attach = &Counter{}
			}
		case KindGauge:
			s.gauge = &Gauge{}
		case KindHistogram:
			s.hist = &Histogram{bounds: f.bounds, buckets: make([]atomic.Uint64, len(f.bounds)+1)}
		}
		f.series[key] = s
	}
	if attach != nil && !slices.Contains(s.ctrs, attach) {
		s.ctrs = append(s.ctrs, attach)
	}
	return s
}

// OnCollect registers a hook run (in registration order) at the start
// of every Snapshot — the seam pull-style gauges update through (queue
// depths, per-peer ingest folds). Hooks must not call back into
// Snapshot.
func (r *Registry) OnCollect(f func()) {
	r.mu.Lock()
	r.collect = append(r.collect, f)
	r.mu.Unlock()
}

// Metric is one exported series in a Snapshot.
type Metric struct {
	Name   string
	Kind   Kind
	Labels []Label // sorted by key
	// Value carries counters (cast) and gauges.
	Value int64
	// Histogram-only fields.
	Count   uint64
	Sum     int64
	Bounds  []int64
	Buckets []uint64
}

// key orders metrics within a snapshot.
func (m Metric) key() string { return m.Name + "\x00" + labelKey(m.Labels) }

// Snapshot is a deterministic point-in-time copy of a registry: series
// sorted by (name, labels), including the registry's own
// telemetry_series_dropped_total guard counter.
type Snapshot struct {
	Metrics []Metric
}

// Snapshot collects every series. Collect hooks run first, then values
// are read with atomic loads; series registered concurrently with the
// snapshot appear in it or in the next one.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	hooks := append([]func(){}, r.collect...)
	r.mu.Unlock()
	for _, f := range hooks {
		f()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out Snapshot
	for _, name := range r.order {
		f := r.families[name]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			m := Metric{Name: f.name, Kind: f.kind, Labels: s.labels}
			switch f.kind {
			case KindCounter:
				for _, c := range s.ctrs {
					m.Value += int64(c.Value())
				}
			case KindGauge:
				m.Value = s.gauge.Value()
			case KindHistogram:
				m.Count = s.hist.Count()
				m.Sum = s.hist.Sum()
				m.Bounds = f.bounds
				m.Buckets = make([]uint64, len(s.hist.buckets))
				for i := range s.hist.buckets {
					m.Buckets[i] = s.hist.buckets[i].Load()
				}
			}
			out.Metrics = append(out.Metrics, m)
		}
	}
	if d := r.dropped.Value(); d > 0 {
		m := Metric{Name: "telemetry_series_dropped_total", Kind: KindCounter, Value: int64(d)}
		i := sort.Search(len(out.Metrics), func(i int) bool { return out.Metrics[i].key() >= m.key() })
		out.Metrics = append(out.Metrics, Metric{})
		copy(out.Metrics[i+1:], out.Metrics[i:])
		out.Metrics[i] = m
	}
	return out
}

// Delta returns this snapshot with counters and histogram buckets
// expressed relative to prev. Counter resets (current below previous —
// a restarted process re-registering the series) yield the current
// value, the Prometheus rate() convention, so deltas never go negative.
// Gauges keep their current value: a gauge is already a level, not an
// accumulation. Series absent from prev pass through unchanged.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	old := make(map[string]*Metric, len(prev.Metrics))
	for i := range prev.Metrics {
		old[prev.Metrics[i].key()] = &prev.Metrics[i]
	}
	out := Snapshot{Metrics: make([]Metric, len(s.Metrics))}
	copy(out.Metrics, s.Metrics)
	for i := range out.Metrics {
		m := &out.Metrics[i]
		p := old[m.key()]
		if p == nil || p.Kind != m.Kind {
			continue
		}
		switch m.Kind {
		case KindCounter:
			if m.Value >= p.Value {
				m.Value -= p.Value
			}
		case KindHistogram:
			// A reset shows as any component going backwards (count, sum
			// with non-negative observations, or a bucket); keep absolute
			// values then, like the counter convention.
			reset := m.Count < p.Count || m.Sum < p.Sum
			for j := range m.Buckets {
				if j < len(p.Buckets) && m.Buckets[j] < p.Buckets[j] {
					reset = true
				}
			}
			if reset {
				continue
			}
			m.Count -= p.Count
			m.Sum -= p.Sum
			buckets := append([]uint64(nil), m.Buckets...)
			for j := range buckets {
				if j < len(p.Buckets) {
					buckets[j] -= p.Buckets[j]
				}
			}
			m.Buckets = buckets
		}
	}
	return out
}

// Get returns the metric with the given name and labels, if present.
func (s Snapshot) Get(name string, labels ...Label) (Metric, bool) {
	want := Metric{Name: name, Labels: sortLabels(labels)}.key()
	for _, m := range s.Metrics {
		if m.key() == want {
			return m, true
		}
	}
	return Metric{}, false
}
