// Package simnet simulates the P2P network substrate the paper deploys on
// (Java/Tomcat/Axis peers exchanging SOAP over HTTP). Peers become nodes
// in an in-process network with a virtual clock, a latency model derived
// from 2D coordinates, per-link accounting of messages and bytes
// (serialized XML size), and the load the simulated world imposes on a
// node. The experiments about communication savings (selection pushdown
// C5, ActiveXML laziness C6, stream reuse C7) read their numbers from
// these counters.
package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"p2pm/internal/stream"
	"p2pm/internal/telemetry"
)

// Options configures a simulated network.
type Options struct {
	// Seed drives all randomness (coordinates, workload draws).
	Seed int64
	// BaseLatency is the fixed per-message latency floor.
	BaseLatency time.Duration
	// LatencyPerUnit scales latency with Euclidean coordinate distance.
	LatencyPerUnit time.Duration
}

// DefaultOptions mirror a modest wide-area deployment: 5ms floor plus up
// to ~70ms of distance-dependent latency on the unit square.
func DefaultOptions() Options {
	return Options{Seed: 1, BaseLatency: 5 * time.Millisecond, LatencyPerUnit: 50 * time.Millisecond}
}

// Clock is the virtual clock shared by every node of a network.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new time.
func (c *Clock) Advance(d time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}

// Node is one simulated machine.
type Node struct {
	Name string
	X, Y float64
	load int
	down bool
	part int // partition group; 0 = unassigned (reachable from any group)
}

// LinkStats counts traffic on one directed link.
type LinkStats struct {
	Messages uint64
	Bytes    uint64
	// Dropped counts messages lost on the link: crashed endpoint,
	// partition, or injected loss.
	Dropped uint64
}

// Network is the simulated substrate.
type Network struct {
	opts  Options
	clock *Clock

	mu        sync.Mutex
	rng       *rand.Rand
	nodes     map[string]*Node
	links     map[[2]string]*LinkStats
	latOver   map[[2]string]time.Duration
	dropProb  map[[2]string]float64
	linkDelay map[[2]string]time.Duration

	// msgs, bytes and dropped are the network-wide totals since
	// construction (per-link series would explode cardinality on large
	// meshes — per-link numbers stay available via Link). Instrument
	// exports them, and Totals reads them less their values at the last
	// ResetTraffic (reset).
	msgs, bytes, dropped telemetry.Counter
	reset                Totals
}

// Instrument exports the network's aggregate traffic counters as
// simnet_messages_total, simnet_bytes_total and simnet_dropped_total.
// They are cumulative: ResetTraffic does not rewind them. Idempotent.
func (nw *Network) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Attach("simnet_messages_total", &nw.msgs)
	reg.Attach("simnet_bytes_total", &nw.bytes)
	reg.Attach("simnet_dropped_total", &nw.dropped)
}

// New builds an empty network.
func New(opts Options) *Network {
	if opts.BaseLatency == 0 && opts.LatencyPerUnit == 0 {
		opts.BaseLatency = DefaultOptions().BaseLatency
		opts.LatencyPerUnit = DefaultOptions().LatencyPerUnit
	}
	return &Network{
		opts:      opts,
		clock:     &Clock{},
		rng:       rand.New(rand.NewSource(opts.Seed)),
		nodes:     make(map[string]*Node),
		links:     make(map[[2]string]*LinkStats),
		latOver:   make(map[[2]string]time.Duration),
		dropProb:  make(map[[2]string]float64),
		linkDelay: make(map[[2]string]time.Duration),
	}
}

// Clock returns the network's virtual clock.
func (nw *Network) Clock() *Clock { return nw.clock }

// Rand returns the network's seeded random source. Callers must not use
// it concurrently with AddNode (tests and workload generators are
// single-threaded at setup time).
func (nw *Network) Rand() *rand.Rand { return nw.rng }

// AddNode registers a node at a random coordinate and returns it.
// Re-adding an existing name returns the existing node.
func (nw *Network) AddNode(name string) *Node {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if n, ok := nw.nodes[name]; ok {
		return n
	}
	n := &Node{Name: name, X: nw.rng.Float64(), Y: nw.rng.Float64()}
	nw.nodes[name] = n
	return n
}

// Node returns a registered node or nil.
func (nw *Network) Node(name string) *Node {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.nodes[name]
}

// Nodes returns all node names, sorted.
func (nw *Network) Nodes() []string {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	names := make([]string, 0, len(nw.nodes))
	for n := range nw.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SetLatency overrides the latency of the directed link a→b.
func (nw *Network) SetLatency(a, b string, d time.Duration) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.latOver[[2]string{a, b}] = d
}

// Latency returns the one-way latency between two nodes. Local delivery
// (a == b) is free.
func (nw *Network) Latency(a, b string) time.Duration {
	if a == b {
		return 0
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.latencyLocked(a, b)
}

func (nw *Network) latencyLocked(a, b string) time.Duration {
	extra := nw.linkDelay[[2]string{a, b}]
	if d, ok := nw.latOver[[2]string{a, b}]; ok {
		return d + extra
	}
	na, nb := nw.nodes[a], nw.nodes[b]
	if na == nil || nb == nil {
		return nw.opts.BaseLatency + extra
	}
	dist := math.Hypot(na.X-nb.X, na.Y-nb.Y)
	return nw.opts.BaseLatency + time.Duration(dist*float64(nw.opts.LatencyPerUnit)) + extra
}

// Distance returns the coordinate distance between two nodes (used by the
// reuse optimizer's "close networkwise" replica choice).
func (nw *Network) Distance(a, b string) float64 {
	if a == b {
		return 0
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	na, nb := nw.nodes[a], nw.nodes[b]
	if na == nil || nb == nil {
		return math.Inf(1)
	}
	return math.Hypot(na.X-nb.X, na.Y-nb.Y)
}

// CountTransfer records a message of the given byte size on link from→to.
// Local deliveries are not counted: the paper's savings are about the
// network.
func (nw *Network) CountTransfer(from, to string, bytes int) {
	if from == to {
		return
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.countLocked(from, to, bytes)
}

func (nw *Network) countLocked(from, to string, bytes int) {
	ls := nw.linkLocked(from, to)
	ls.Messages++
	ls.Bytes += uint64(bytes)
	nw.msgs.Inc()
	nw.bytes.Add(uint64(bytes))
}

// linkLocked returns the stats of link from→to, creating them.
func (nw *Network) linkLocked(from, to string) *LinkStats {
	key := [2]string{from, to}
	ls := nw.links[key]
	if ls == nil {
		ls = &LinkStats{}
		nw.links[key] = ls
	}
	return ls
}

// Send accounts for shipping an item from one node to another and returns
// the item restamped with its arrival time: production time plus link
// latency. Virtual time is carried entirely on items — wall-clock
// goroutine scheduling never leaks into timestamps. Send ignores faults;
// use Deliver for fault-aware transport.
func (nw *Network) Send(from, to string, it stream.Item) stream.Item {
	if !it.EOS() {
		nw.CountTransfer(from, to, it.Bytes())
	}
	it.Time += nw.Latency(from, to)
	return it
}

// Deliver ships an item across the from→to link under the fault model:
// the message is lost (ok=false, counted in LinkStats.Dropped) when
// either endpoint is crashed, the link crosses a partition, or injected
// loss strikes. Delivered items are accounted and latency-stamped like
// Send. The eos symbol is never dropped — a crashed producer's stream is
// torn down by the failure handling layer, not by losing its terminator.
func (nw *Network) Deliver(from, to string, it stream.Item) (stream.Item, bool) {
	if it.EOS() {
		it.Time += nw.Latency(from, to)
		return it, true
	}
	lat, ok := nw.transfer(from, to, it.Bytes())
	it.Time += lat
	return it, ok
}

// transfer is one message of the given size on from→to under the fault
// model, in one critical section: reachability, then injected loss (an
// rng draw only on a link with a drop probability), then the drop or the
// transfer counted. It returns the link's latency and whether the message
// arrived.
func (nw *Network) transfer(from, to string, bytes int) (time.Duration, bool) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if !nw.reachableLocked(from, to) || nw.loseLocked(from, to) {
		if from != to {
			nw.linkLocked(from, to).Dropped++
			nw.dropped.Inc()
		}
		return 0, false
	}
	if from == to {
		return 0, true
	}
	nw.countLocked(from, to, bytes)
	return nw.latencyLocked(from, to), true
}

// DeliverHook returns a stream.Channel delivery hook that routes items
// across the from→to link with accounting, latency stamping and fault
// injection: messages lost to crashes, partitions or injected drop
// probability never reach the consumer's queue.
func (nw *Network) DeliverHook(from, to string) func(stream.Item, *stream.Queue) {
	return func(it stream.Item, q *stream.Queue) {
		if out, ok := nw.Deliver(from, to, it); ok {
			q.Push(out)
		}
	}
}

// Totals summarizes all traffic.
type Totals struct {
	Messages uint64
	Bytes    uint64
	Dropped  uint64
	Links    int
}

// Totals returns aggregate traffic counters since the last
// ResetTraffic.
func (nw *Network) Totals() Totals {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return Totals{
		Messages: nw.msgs.Value() - nw.reset.Messages,
		Bytes:    nw.bytes.Value() - nw.reset.Bytes,
		Dropped:  nw.dropped.Value() - nw.reset.Dropped,
		Links:    len(nw.links),
	}
}

// Link returns a copy of the stats for the directed link a→b.
func (nw *Network) Link(a, b string) LinkStats {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if ls := nw.links[[2]string{a, b}]; ls != nil {
		return *ls
	}
	return LinkStats{}
}

// ResetTraffic zeroes all link counters (between experiment phases).
func (nw *Network) ResetTraffic() {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.links = make(map[[2]string]*LinkStats)
	nw.reset = Totals{Messages: nw.msgs.Value(), Bytes: nw.bytes.Value(), Dropped: nw.dropped.Value()}
}

// AddLoad adjusts the load the simulated world imposes on a node. The
// runtime adds it to the load a peer counts itself when it places
// operators and picks providers, so harnesses steer placement with it.
func (nw *Network) AddLoad(name string, delta int) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if n := nw.nodes[name]; n != nil {
		n.load += delta
	}
}

// Load returns the load the simulated world imposes on a node.
func (nw *Network) Load(name string) int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if n := nw.nodes[name]; n != nil {
		return n.load
	}
	return 0
}

// String renders a short summary.
func (nw *Network) String() string {
	t := nw.Totals()
	return fmt.Sprintf("simnet{nodes=%d links=%d msgs=%d bytes=%d}", len(nw.Nodes()), t.Links, t.Messages, t.Bytes)
}
