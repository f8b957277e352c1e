// Package gen holds the seeded input generators of the end-to-end
// benchmark (bench/). Every input the program under test sees —
// documents, subscription sets, call parameters, value streams, source
// ranges, crash schedules — comes from here, as a pure function of the
// seed. It deliberately imports neither internal/workload nor
// internal/experiments: those are slated to shrink, and the benchmark's
// load must not move with them.
package gen

import (
	"fmt"
	"math/rand"
	"strconv"

	"p2pm/internal/filter"
	"p2pm/internal/xmltree"
	"p2pm/internal/xpath"
)

// sub-stream offsets keep the generators of one run independent: each
// draws from its own rng, so adding a draw to one never shifts another.
const (
	streamFilter = iota + 1
	streamCalls
	streamValues
	streamWire
	streamRanges
	streamCrash
)

func rng(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)))
}

// --- filter-10k: subscriptions and alert documents ---

// The filter vocabulary mirrors a busy telecom-style monitoring feed:
// 20 root attributes × 10 values tested by simple conditions, and a
// payload of a few hot labels plus a long tail probed by tree patterns.
const (
	filterAttrs     = 20
	filterValues    = 10
	filterConds     = 2
	filterComplex   = 0.3
	filterPathDepth = 3
	payloadDepth    = 3
	payloadFanout   = 3
)

var payloadLabels = func() []string {
	labels := []string{"envelope", "body", "call", "param", "result", "fault", "detail"}
	for i := 0; i < 18; i++ {
		labels = append(labels, fmt.Sprintf("op%02d", i))
	}
	return labels
}()

// Filter generates the filter-10k inputs.
type Filter struct{ r *rand.Rand }

// NewFilter returns the filter-10k generator for a seed.
func NewFilter(seed int64) *Filter { return &Filter{r: rng(seed, streamFilter)} }

func attrName(i int) string  { return fmt.Sprintf("a%02d", i) }
func attrValue(i int) string { return fmt.Sprintf("v%02d", i) }

// Subscription draws one subscription: two simple equality conditions
// on root attributes and, for 30 % of them, one linear tree pattern.
func (g *Filter) Subscription(id string) filter.Subscription {
	s := filter.Subscription{ID: id}
	used := map[int]bool{}
	for len(s.Simple) < filterConds {
		a := g.r.Intn(filterAttrs)
		if used[a] {
			continue
		}
		used[a] = true
		s.Simple = append(s.Simple, filter.Cond{
			Attr: attrName(a), Op: xpath.OpEq, Value: attrValue(g.r.Intn(filterValues)),
		})
	}
	if g.r.Float64() < filterComplex {
		s.Complex = append(s.Complex, g.query())
	}
	return s
}

// Subscriptions draws n subscriptions named sub-00000 … .
func (g *Filter) Subscriptions(n int) []filter.Subscription {
	subs := make([]filter.Subscription, n)
	for i := range subs {
		subs[i] = g.Subscription(fmt.Sprintf("sub-%05d", i))
	}
	return subs
}

// query draws a linear tree pattern such as //body/op07[@p1 = "x2"].
func (g *Filter) query() *xpath.Path {
	src := ""
	for d := 1 + g.r.Intn(filterPathDepth); d > 0; d-- {
		if g.r.Intn(2) == 0 {
			src += "/"
		} else {
			src += "//"
		}
		src += payloadLabels[g.r.Intn(len(payloadLabels))]
	}
	if g.r.Intn(3) == 0 {
		src += fmt.Sprintf(`[@p%d = "x%d"]`, g.r.Intn(3), g.r.Intn(4))
	}
	return xpath.MustCompile(src)
}

// Document draws one alert: root attributes from the vocabulary plus a
// random payload tree (≈ 380 bytes serialized on average).
func (g *Filter) Document() *xmltree.Node {
	doc := xmltree.Elem(payloadLabels[0])
	for i := 1 + g.r.Intn(filterAttrs); i > 0; i-- {
		doc.SetAttr(attrName(g.r.Intn(filterAttrs)), attrValue(g.r.Intn(filterValues)))
	}
	doc.Append(g.payload(payloadDepth))
	return doc
}

func (g *Filter) payload(depth int) *xmltree.Node {
	n := xmltree.Elem(payloadLabels[g.r.Intn(len(payloadLabels))])
	for a := g.r.Intn(3); a > 0; a-- {
		n.SetAttr("p"+strconv.Itoa(g.r.Intn(3)), "x"+strconv.Itoa(g.r.Intn(4)))
	}
	if depth <= 0 {
		n.Append(xmltree.Text("x"))
		return n
	}
	for i := 1 + g.r.Intn(payloadFanout); i > 0; i-- {
		n.Append(g.payload(depth - 1))
	}
	return n
}

// Documents draws n alerts in serialized form.
func (g *Filter) Documents(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.Document().String()
	}
	return out
}

// --- pipeline-sim / agg-sketch / control-plane: monitored calls ---

// Call is one monitored Web-service call of a drive schedule.
type Call struct {
	Caller int           // index into the caller pool
	Source int           // index into the monitored-source pool
	Method string        // invoked method (the value stream of agg-sketch)
	Params *xmltree.Node // request body; shared, never mutated by the runtime
}

// Calls is an endless seeded drive schedule: sources round-robin (so
// every source and window sees the same load whatever the seed),
// callers, methods and parameters drawn from the seed.
type Calls struct {
	r       *rand.Rand
	sources int
	callers int
	methods []string
	zipf    *rand.Zipf
	params  []*xmltree.Node
	n       int
}

// NewCalls builds a schedule over the given pools. methods is the
// method-name universe; with skew > 1 methods are drawn Zipf(skew)
// (heavy hitters for the freq sketch), otherwise uniformly.
func NewCalls(seed int64, sources, callers int, methods []string, skew float64) *Calls {
	c := &Calls{r: rng(seed, streamCalls), sources: sources, callers: callers, methods: methods}
	if skew > 1 {
		c.zipf = rand.NewZipf(rng(seed, streamValues), skew, 1, uint64(len(methods)-1))
	}
	for i := 0; i < 64; i++ {
		p := xmltree.Elem("q")
		p.SetAttr("sym", fmt.Sprintf("S%03d", c.r.Intn(1000)))
		p.SetAttr("n", strconv.Itoa(c.r.Intn(100)))
		c.params = append(c.params, p)
	}
	return c
}

// Next returns the next call of the schedule.
func (c *Calls) Next() Call {
	call := Call{Source: c.n % c.sources, Params: c.params[c.r.Intn(len(c.params))]}
	c.n++
	if c.callers > 1 {
		call.Caller = c.r.Intn(c.callers)
	}
	if c.zipf != nil {
		call.Method = c.methods[c.zipf.Uint64()]
	} else {
		call.Method = c.methods[c.r.Intn(len(c.methods))]
	}
	return call
}

// NumericMethods returns the universe "1" … "n": numeric method names
// double as the aggregated value of the avg/distinct/freq subscriptions.
func NumericMethods(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = strconv.Itoa(i + 1)
	}
	return out
}

// --- transport-tcp: wire payloads ---

// ItemXML draws n serialized alert bodies of ≈ 140 bytes, so an encoded
// wire.Item frame lands near 160 bytes.
func ItemXML(seed int64, n int) []string {
	r := rng(seed, streamWire)
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf(`<alert type="ws-in" callId="call-%06d" callMethod="Reserve%02d" caller="http://agency-%02d" callee="http://airline-%02d" seat="%02d%c" fare="%04d.%02d"/>`,
			r.Intn(1_000_000), r.Intn(100), r.Intn(100), r.Intn(100), 1+r.Intn(60), 'A'+rune(r.Intn(6)), r.Intn(2000), r.Intn(100))
	}
	return out
}

// Values draws n values from a universe of the given size (Zipf 1.2):
// the stream a sketch state is built from.
func Values(seed int64, n, universe int) []string {
	z := rand.NewZipf(rng(seed, streamValues), 1.2, 1, uint64(universe-1))
	out := make([]string, n)
	for i := range out {
		out[i] = "user-" + strconv.FormatUint(z.Uint64(), 10)
	}
	return out
}

// --- control-plane: overlapping source ranges and the crash schedule ---

// Range is a half-open interval [Lo, Hi) of source indices.
type Range struct{ Lo, Hi int }

// SourceRanges draws n overlapping ranges over `sources` sources: the
// first spans all of them (it seeds the shared aggregation tree), the
// rest slide with a seeded start and a width of 2 … sources/2.
func SourceRanges(seed int64, n, sources int) []Range {
	r := rng(seed, streamRanges)
	out := make([]Range, n)
	out[0] = Range{0, sources}
	for i := 1; i < n; i++ {
		w := 2 + r.Intn(sources/2-1)
		lo := r.Intn(sources - w + 1)
		out[i] = Range{lo, lo + w}
	}
	return out
}

// CrashSchedule is the churn timeline of control-plane phase B: a crash
// every Every steps starting at First, the victim recovering Down steps
// later.
type CrashSchedule struct{ First, Every, Down int }

// NewCrashSchedule draws the schedule: the period is fixed (one crash
// per 20 steps, 10 steps of downtime); the seed moves only its phase.
func NewCrashSchedule(seed int64) CrashSchedule {
	return CrashSchedule{First: 5 + rng(seed, streamCrash).Intn(10), Every: 20, Down: 10}
}

// CrashAt reports whether a crash is due at the given step.
func (c CrashSchedule) CrashAt(step int) bool {
	return step >= c.First && (step-c.First)%c.Every == 0
}
