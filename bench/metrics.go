package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"text/tabwriter"
	"time"
)

// metric declares one reported number. The declarations below are the
// single source of truth: BENCHMARK.json mirrors them (the smoke test
// checks it), -list prints them, -compare applies their bounds.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
	// Note says, for an end-to-end metric, what it measures on each
	// workload; for a per-layer metric, which end-to-end metric it should
	// move and on which workload.
	Note string
}

// endToEnd is what a user of the monitor sees. Every workload reports
// every one of them (the driver's contract), so each name has a stated
// meaning on each workload; see README.md for the full table.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25,
		"median time to build the system under test from generated inputs, on the reference clock (filter: 10k Add + first match; sim workloads: System + peers + subscriptions; tcp: listen + dial + first ack)"},
	{"items_per_s", "items/s", "higher", 0.25,
		"median slice on the reference clock: filter-10k docs matched; pipeline-sim hits delivered (64 in flight); agg-sketch alerts folded; transport-tcp messages acked (64 in flight per source); control-plane subscriptions deployed+stopped (phase A)"},
	{"item_p50_us", "us", "lower", 0.25,
		"median on the reference clock: filter-10k call->verdict; pipeline-sim Invoke->Results().Pop (1 in flight); agg-sketch the monitored call's Invoke (hook->alerter->publish); transport-tcp Send->ack (1 in flight per source); control-plane Peer.Subscribe"},
	{"allocs_per_item", "allocs/item", "lower", 0.05, "runtime.MemStats.Mallocs delta over the throughput phase, per item"},
	{"alloc_bytes_per_item", "B/item", "lower", 0.05, "runtime.MemStats.TotalAlloc delta over the throughput phase, per item"},
	{"net_bytes_per_item", "B/item", "lower", 0.02,
		"bytes on the network per item: simnet.Totals().Bytes (sim workloads), sum of Stats().SentBytes (tcp); filter-10k: serialized bytes of the documents the filter lets through, per document offered"},
}

// perLayer is the per-layer budget, reported by the traced run only.
// Timing rows come from a layer replay (the workload's generated inputs
// pushed through that layer's public API alone, single goroutine);
// counter rows are read from the layer's public counters after the
// traced run. A row a workload does not exercise reads 0 there.
var perLayer = []metric{
	{"xmltree.parse_us", "us", "lower", 0, "items_per_s, allocs_per_item on filter-10k"},
	{"xmltree.parse_allocs", "allocs/op", "lower", 0, "allocs_per_item on filter-10k"},
	{"xmltree.first_tag_ns", "ns", "lower", 0, "items_per_s on filter-10k (docs decided from the first tag)"},
	{"xmltree.serialize_us", "us", "lower", 0, "items_per_s on pipeline-sim (Channel.publish sizes every item); filter-10k docs"},
	{"xpath.eval_ns", "ns", "lower", 0, "items_per_s on filter-10k"},

	{"filter.match_us", "us", "lower", 0, "items_per_s, item_p50_us on filter-10k"},
	{"filter.match_allocs", "allocs/op", "lower", 0, "allocs_per_item on filter-10k"},
	{"filter.rebuild_ms", "ms", "lower", 0, "items_per_s, driver.item_p99_us on filter-10k (one rebuild per 2000 docs)"},
	{"filter.aes_match_us", "us", "lower", 0, "item_p50_us on filter-10k"},
	{"filter.prefilter_evals_per_doc", "count", "lower", 0, "items_per_s on filter-10k"},
	{"filter.aes_probes_per_doc", "count", "lower", 0, "items_per_s on filter-10k"},
	{"filter.yfilter_run_frac", "frac", "lower", 0, "items_per_s on filter-10k"},
	{"filter.body_parsed_frac", "frac", "lower", 0, "items_per_s, allocs_per_item on filter-10k"},
	{"filter.matches_per_doc", "count", "higher", 0, "net_bytes_per_item on filter-10k; a property of the load, should not move"},

	{"soap.invoke_us", "us", "lower", 0, "item_p50_us on pipeline-sim; items_per_s on agg-sketch"},
	{"alerters.ws_alert_us", "us", "lower", 0, "item_p50_us on pipeline-sim; items_per_s on agg-sketch"},
	{"alerters.ws_alert_allocs", "allocs/op", "lower", 0, "allocs_per_item on pipeline-sim, agg-sketch"},

	{"stream.publish_ns", "ns", "lower", 0, "items_per_s on pipeline-sim, agg-sketch"},
	{"stream.queue_push_pop_ns", "ns", "lower", 0, "items_per_s on pipeline-sim, agg-sketch"},
	{"stream.queue_high_water", "count", "lower", 0, "backlog of the subscriber queue; bounded by the items in flight"},
	{"stream.replay_add_ns", "ns", "lower", 0, "control.virt_s_per_s on control-plane (publish with retention on)"},
	{"stream.replay_ring_len", "count", "lower", 0, "control.virt_s_per_s on control-plane (items retained at the end of phase B)"},

	{"operators.select_ns", "ns", "lower", 0, "item_p50_us, items_per_s on pipeline-sim"},
	{"operators.restructure_ns", "ns", "lower", 0, "item_p50_us, items_per_s on pipeline-sim"},
	{"operators.restructure_allocs", "allocs/op", "lower", 0, "allocs_per_item on pipeline-sim"},
	{"operators.group_accept_ns", "ns", "lower", 0, "flat Group fold; items_per_s on pipeline-sim if the tree is ever flattened"},
	{"operators.partial_accept_ns", "ns", "lower", 0, "items_per_s on agg-sketch, less on pipeline-sim"},
	{"operators.partial_accept_allocs", "allocs/op", "lower", 0, "allocs_per_item on agg-sketch"},
	{"operators.merge_accept_ns", "ns", "lower", 0, "items_per_s on agg-sketch"},
	{"operators.items_in", "count", "lower", 0, "Task.ItemsProcessed per item driven: operator work per item"},
	{"operators.items_out", "count", "lower", 0, "result items per item driven"},

	{"monoid.absorb_ns.count", "ns", "lower", 0, "items_per_s on agg-sketch"},
	{"monoid.absorb_ns.avg", "ns", "lower", 0, "items_per_s on agg-sketch"},
	{"monoid.absorb_ns.distinct", "ns", "lower", 0, "items_per_s on agg-sketch"},
	{"monoid.absorb_ns.freq", "ns", "lower", 0, "items_per_s on agg-sketch"},
	{"monoid.merge_us.distinct", "us", "lower", 0, "items_per_s on agg-sketch"},
	{"monoid.merge_us.freq", "us", "lower", 0, "items_per_s on agg-sketch"},
	{"monoid.encode_us.distinct", "us", "lower", 0, "items_per_s on agg-sketch"},
	{"monoid.encode_us.freq", "us", "lower", 0, "items_per_s on agg-sketch"},
	{"monoid.decode_us.distinct", "us", "lower", 0, "items_per_s on agg-sketch"},
	{"monoid.decode_us.freq", "us", "lower", 0, "items_per_s on agg-sketch"},
	{"monoid.state_bytes.distinct", "B", "lower", 0, "net_bytes_per_item on agg-sketch"},
	{"monoid.state_bytes.freq", "B", "lower", 0, "net_bytes_per_item on agg-sketch"},

	{"aggtree.rewrite_us", "us", "lower", 0, "setup_s on pipeline-sim, agg-sketch"},
	{"aggtree.interiors", "count", "lower", 0, "tree shape; setup_s"},
	{"aggtree.ingest_max_over_mean", "ratio", "lower", 0, "hotspot ratio from Task.IngestByPeer; explains items_per_s on agg-sketch"},

	{"simnet.deliver_ns", "ns", "lower", 0, "items_per_s on pipeline-sim, agg-sketch"},
	{"simnet.msgs_per_item", "count", "lower", 0, "net_bytes_per_item on the sim workloads"},
	{"simnet.bytes_per_item", "B", "lower", 0, "net_bytes_per_item on the sim workloads"},
	{"simnet.dropped", "count", "lower", 0, "failed on the sim workloads (0 without injected faults; crashes in control-plane drop)"},

	{"wire.encode_ns.item", "ns", "lower", 0, "items_per_s on transport-tcp"},
	{"wire.encode_ns.partial", "ns", "lower", 0, "items_per_s on transport-tcp"},
	{"wire.encode_ns.probe", "ns", "lower", 0, "flat until gossip runs on Transport"},
	{"wire.decode_ns.item", "ns", "lower", 0, "items_per_s on transport-tcp"},
	{"wire.decode_ns.partial", "ns", "lower", 0, "items_per_s on transport-tcp"},
	{"wire.decode_ns.probe", "ns", "lower", 0, "flat until gossip runs on Transport"},
	{"wire.encode_allocs.item", "allocs/op", "lower", 0, "allocs_per_item on transport-tcp"},
	{"wire.decode_allocs.item", "allocs/op", "lower", 0, "allocs_per_item on transport-tcp"},
	{"wire.size_bytes.item", "B", "lower", 0, "net_bytes_per_item on transport-tcp"},

	{"transport.send_ns", "ns", "lower", 0, "caller-side cost of Send; items_per_s on transport-tcp"},
	{"transport.hop_us.tcp", "us", "lower", 0, "item_p50_us on transport-tcp (half the traced RTT)"},
	{"transport.hop_us.sim", "us", "lower", 0, "the same driver on transport.NewSimNet"},
	{"transport.items_per_s.sim", "items/s", "higher", 0, "the transport-tcp driver on the sim backend: codec without sockets"},
	{"transport.dropped", "count", "lower", 0, "failed on transport-tcp"},
	{"transport.reconnects", "count", "lower", 0, "failed, driver.item_p99_us on transport-tcp"},
	{"transport.queue_drop_frac", "frac", "lower", 0, "failed on transport-tcp"},

	{"p2pml.parse_us", "us", "lower", 0, "items_per_s on control-plane; setup_s elsewhere"},
	{"algebra.compile_us", "us", "lower", 0, "items_per_s on control-plane"},
	{"reuse.pass_us", "us", "lower", 0, "items_per_s, item_p50_us on control-plane"},
	{"reuse.failed_lookups", "count", "lower", 0, "control.ops_per_sub on control-plane"},
	{"kadop.publish_us", "us", "lower", 0, "items_per_s on control-plane"},
	{"kadop.find_us", "us", "lower", 0, "items_per_s on control-plane"},
	{"dht.put_us", "us", "lower", 0, "items_per_s on control-plane"},
	{"dht.get_us", "us", "lower", 0, "items_per_s on control-plane"},
	{"dht.hops_per_lookup", "count", "lower", 0, "net_bytes_per_item on control-plane"},
	{"dht.cache_hit_frac", "frac", "higher", 0, "dht.get_us (bounded-load ring with the read cache on)"},
	{"dht.handoffs", "count", "lower", 0, "control.repair_p50_ms (key copies moved by the churn of phase B)"},

	{"peer.subscribe_us", "us", "lower", 0, "items_per_s, item_p50_us on control-plane"},
	{"peer.stop_us", "us", "lower", 0, "items_per_s on control-plane"},
	{"peer.step_us", "us", "lower", 0, "control.virt_s_per_s on control-plane; items_per_s on pipeline-sim (one Step per 16 calls)"},
	{"peer.step_us_per_task", "us", "lower", 0, "control.virt_s_per_s on control-plane"},
	{"peer.gossip_tick_us", "us", "lower", 0, "control.virt_s_per_s on control-plane"},
	{"peer.checkpoint_ms", "ms", "lower", 0, "control.virt_s_per_s on control-plane"},
	{"peer.failpeer_ms", "ms", "lower", 0, "control.repair_p50_ms on control-plane"},
	{"peer.rejoin_ms", "ms", "lower", 0, "control.repair_p50_ms on control-plane"},
	{"peer.detect_virt_s", "s", "lower", 0, "virtual seconds from crash to the death event"},
	{"peer.replayed_items", "count", "lower", 0, "System.ReplayedItems over phase B"},
	{"peer.false_deaths", "count", "lower", 0, "failed on control-plane"},

	{"control.ops_per_sub", "count", "lower", 0, "operators deployed per subscription, phase A: reuse effectiveness, an exact count per seed"},
	{"control.virt_s_per_s", "1/s", "higher", 0, "virtual seconds simulated per wall second, phase B"},
	{"control.repair_p50_ms", "ms", "lower", 0, "wall ms from the start of the Step that confirms a death to the end of its repair, phase B"},

	{"telemetry.counter_ns", "ns", "lower", 0, "the cost of looking: one registered counter increment"},
	{"telemetry.snapshot_us", "us", "lower", 0, "one Registry.Snapshot of the traced run's registry"},
	{"telemetry.overhead_frac", "frac", "lower", 0, "pipeline-sim items_per_s with a Registry wired vs nil"},
	{"driver.item_p99_us", "us", "lower", 0, "99th percentile of the item_p50_us span, as measured, untraced pass; it spread more than 0.25 between runs of one commit on three workloads, so it has no bound"},
	{"driver.machine_speed", "frac", "higher", 0, "speed of the speedometer's kernel over the throughput phase relative to the quiet reference box; setup_s, items_per_s and item_p50_us are scaled by it"},
	{"driver.quiesce_ms", "ms", "lower", 0, "control-plane: median wait for the pipeline to drain before a Step"},
	{"driver.path_sum_frac", "frac", "higher", 0, "pipeline-sim: self time of the spans on an item's blocking path over its latency"},
	{"driver.trace_overhead_frac", "frac", "lower", 0, "traced vs untraced items_per_s at the same size"},
}

// run is what one workload execution measured.
type run struct {
	Attempted int64
	Failed    int64
	Reasons   []string           // the first few failed checks, for the human-readable report
	Values    map[string]float64 // metric name -> value
	Samples   map[string]int     // metric name -> sample count behind it
}

func newRun() *run {
	return &run{Values: map[string]float64{}, Samples: map[string]int{}}
}

func (r *run) set(name string, v float64, samples int) {
	r.Values[name] = v
	r.Samples[name] = samples
}

// setLatency records a latency phase that ran while the machine's speed
// was rel: the median on the reference clock (see the speedometer), the
// 99th percentile as measured. It returns the median as measured, in ns.
func (r *run) setLatency(lat []int64, rel float64) (p50 float64) {
	p50 = percentile(lat, 0.50)
	r.set("item_p50_us", p50*rel/1e3, len(lat))
	r.set("driver.item_p99_us", percentile(lat, 0.99)/1e3, len(lat))
	return p50
}

// setRate records a throughput phase the same way; n is its item count.
func (r *run) setRate(perSecond, rel float64, n int) {
	r.set("items_per_s", perSecond/rel, n)
	r.set("driver.machine_speed", rel, n)
}

// fail records failed operations, keeping the first few reasons for the
// human-readable report.
func (r *run) fail(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Reasons) < 8 {
		r.Reasons = append(r.Reasons, fmt.Sprintf(format, args...))
	}
}

// merge adds another run's oracle outcome (not its values) to r.
func (r *run) merge(o *run) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Reasons = append(r.Reasons, o.Reasons...)
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders the run as the contract's JSON object over the declared
// metric set: a declared metric the run did not produce reads 0.
func (r *run) line(decl []metric) resultLine {
	out := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]metricValue, len(decl))}
	for _, m := range decl {
		v := r.Values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out
}

// report prints the human-readable table of the run.
// Rows the run produced outside decl (per-layer rows an untraced run
// measures on the side, such as control-plane's phase B) follow, marked.
func (r *run) report(w io.Writer, decl []metric) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tsamples")
	declared := map[string]bool{}
	for _, m := range decl {
		declared[m.Name] = true
		if v, ok := r.Values[m.Name]; ok {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\n", m.Name, v, m.Unit, r.Samples[m.Name])
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if v, ok := r.Values[m.Name]; ok && !declared[m.Name] {
			fmt.Fprintf(tw, "(%s)\t%.6g\t%s\t%d\n", m.Name, v, m.Unit, r.Samples[m.Name])
		}
	}
	tw.Flush()
}

func printJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// --- small measuring helpers ---

// percentile returns the p-quantile (0..1) of the samples by nearest
// rank; the slice is sorted in place.
func percentile(samples []int64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	i := int(math.Ceil(p*float64(len(samples)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(samples[i])
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// The reference box has 2 cores of a shared host, and what its
// neighbours do to the shared caches and memory changes the speed of the
// same code by 20 to 40 % for seconds to minutes at a time: longer than a
// run, so no choice of slice within a run removes it. (Ten 10 s runs of
// each workload in such a spell: items_per_s spread 19 to 40 % between
// runs of one commit, item_p50_us 22 to 42 %.) A fixed reference kernel,
// timed between the slices of every phase, moved with the workloads
// (correlation 0.92 to 0.98 on all five, exponent 0.6 to 1.1), so the
// benchmark reports its times on the reference kernel's clock: a timed
// phase is cut into slices, the speedometer takes one sample between
// slices, and the phase's time-based metrics are scaled by the median
// sample relative to speedRef. The same runs then spread 5 to 14 %
// (items_per_s) and 6 to 8 % (item_p50_us). What is scaled: setup_s,
// items_per_s, item_p50_us. Counts and per-layer rows are as measured;
// driver.machine_speed is the factor, so a reader can undo it.

// speedometer times a fixed allocating kernel (small trees and a map,
// the kind of work every workload does) between the slices of a phase.
// Kernels that do not touch fresh memory tracked the interference less
// well: arithmetic moved 3 % where the workloads moved 30 %, pointer
// chases through 256 kB, 4 MB and 64 MB correlated 0.6 to 0.97.
type speedometer struct {
	samples []float64 // kernel rounds per second, since the last take
	taken   int       // samples ever taken
	// What one sample allocates, measured once at start: phases subtract
	// it from their own allocation counts.
	allocs, bytes float64
	keep          *speedNode
}

func newSpeedometer() *speedometer {
	s := &speedometer{}
	s.sample() // the first map of a process allocates more
	m0 := markMem()
	s.sample()
	s.allocs, s.bytes = markMem().since(m0)
	s.take()
	return s
}

type speedNode struct {
	name string
	kids []*speedNode
}

const (
	// speedRef is the kernel's speed on the reference box when its
	// neighbours are quiet: reported times are the wall times of a run
	// there.
	speedRef    = 340000.0
	speedRounds = 300 // per sample: about 1 ms and 1 MB
	// speedEvery is how many calls of a latency-only phase pass between
	// two samples.
	speedEvery = 1000
)

// sample runs the kernel once. A sample that a collection cycle hits is
// slow; the median over a phase does not see it.
func (s *speedometer) sample() {
	t0 := time.Now()
	for i := 0; i < speedRounds; i++ {
		root := &speedNode{name: "r"}
		byName := map[string]*speedNode{}
		for k := 0; k < 24; k++ {
			n := &speedNode{name: string(rune('a'+k)) + string(rune('a'+i%26))}
			root.kids = append(root.kids, n)
			byName[n.name] = n
		}
		if byName["aa"] != nil {
			s.keep = root
		}
	}
	s.samples = append(s.samples, speedRounds/time.Since(t0).Seconds())
	s.taken++
}

// markMem is a heap-allocation checkpoint that leaves out what the
// speedometer's own samples allocate.
func (s *speedometer) markMem() memMark {
	m := markMem()
	m.mallocs -= uint64(float64(s.taken) * s.allocs)
	m.bytes -= uint64(float64(s.taken) * s.bytes)
	return m
}

// take closes a phase: it returns the machine's speed over the samples
// since the last take, relative to speedRef (1 when none were taken).
func (s *speedometer) take() float64 {
	if len(s.samples) == 0 {
		return 1
	}
	rel := medianFloat(s.samples) / speedRef
	s.samples = s.samples[:0]
	return rel
}

// rateMeter turns a progress counter read at slice boundaries into the
// median slice rate. Each boundary also takes one speedometer sample,
// outside the slices' time.
type rateMeter struct {
	speed    *speedometer
	progress func() float64 // the counter; it may move while the driver is not sending
	t0, last time.Time
	n0, n    float64
	rates    []float64
}

func newRateMeter(speed *speedometer, progress func() float64) *rateMeter {
	now, n := time.Now(), progress()
	return &rateMeter{speed: speed, progress: progress, t0: now, last: now, n0: n, n: n}
}

// mark closes a slice and opens the next after the speed sample.
func (m *rateMeter) mark() {
	now, n := time.Now(), m.progress()
	if d := now.Sub(m.last).Seconds(); d > 0 && n > m.n {
		m.rates = append(m.rates, (n-m.n)/d)
	}
	m.speed.sample()
	m.last, m.n = time.Now(), m.progress()
}

// rate returns the median slice rate; when no slice was closed, the
// overall rate up to now.
func (m *rateMeter) rate() (perSecond float64, slices int) {
	if len(m.rates) == 0 {
		return (m.progress() - m.n0) / time.Since(m.t0).Seconds(), 0
	}
	return medianFloat(m.rates), len(m.rates)
}

// memMark is a heap-allocation checkpoint; the difference of two marks
// is what the code between them allocated (all goroutines).
type memMark struct{ mallocs, bytes uint64 }

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.Mallocs, m.TotalAlloc}
}

func (a memMark) since(b memMark) (allocs, bytes float64) {
	return float64(a.mallocs - b.mallocs), float64(a.bytes - b.bytes)
}
