package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"p2pm/bench/gen"
	"p2pm/internal/monoid"
	"p2pm/internal/simnet"
	"p2pm/internal/telemetry"
	"p2pm/internal/transport"
	"p2pm/internal/wire"
)

// transport-tcp: three transport.ListenTCP endpoints on loopback in one
// process; two sources stream wire.Item frames to a root whose handler
// answers each with wire.Ack{Seq}; every 32nd message is a wire.Partial
// carrying a ~4 kB sketch state. Phase A: 1 in flight per source (RTT).
// Phase B: 64 in flight per source. The driver is written against the
// Transport interface alone (Send/Handle/Stats) — the seam peer.System
// is to move onto — so the same code runs on transport.NewSimNet for
// the per-layer comparison row.

const (
	tcpInFlight   = 64
	tcpPartialGap = 32
	tcpShareA     = 0.4
	tcpSetupReps  = 200
	tcpItemPool   = 256
	tcpSlice      = 4096 // messages per throughput slice
)

// cluster is a root and its sources on one backend.
type cluster struct {
	root    transport.Transport
	sources []transport.Transport
}

func (c *cluster) all() []transport.Transport {
	return append([]transport.Transport{c.root}, c.sources...)
}

func (c *cluster) close() {
	for _, t := range c.all() {
		t.Close() //nolint:errcheck // teardown of a loopback endpoint
	}
}

func (c *cluster) stats() (s transport.Stats) {
	for _, t := range c.all() {
		st := t.Stats()
		s.Sent += st.Sent
		s.SentBytes += st.SentBytes
		s.Dropped += st.Dropped
		s.Reconnects += st.Reconnects
	}
	return s
}

func listenCluster(reg *telemetry.Registry) (*cluster, error) {
	var eps []*transport.TCP
	for _, name := range []string{"root", "s1", "s2"} {
		ep, err := transport.ListenTCP(name, "127.0.0.1:0", transport.TCPOptions{Telemetry: reg})
		if err != nil {
			for _, e := range eps {
				e.Close() //nolint:errcheck // teardown on a failed set-up
			}
			return nil, err
		}
		eps = append(eps, ep)
	}
	for _, a := range eps {
		for _, b := range eps {
			if a != b {
				a.AddPeer(b.Self(), b.Addr())
			}
		}
	}
	return &cluster{root: eps[0], sources: []transport.Transport{eps[1], eps[2]}}, nil
}

func simCluster() *cluster {
	sn := transport.NewSimNet(simnet.New(simnet.DefaultOptions()))
	return &cluster{root: sn.Endpoint("root"), sources: []transport.Transport{sn.Endpoint("s1"), sn.Endpoint("s2")}}
}

// wireLoad is the generated message stream.
type wireLoad struct {
	xml   []string
	state string // encoded freq sketch, about 4 kB
}

func newWireLoad(seed int64) wireLoad {
	freq, _ := monoid.Lookup("freq")
	st := freq.Zero()
	state := ""
	for _, v := range gen.Values(seed, 4000, 2000) {
		st.Absorb(v) //nolint:errcheck // freq accepts any value
		if state = st.Encode(); len(state) >= 4096 {
			break
		}
	}
	return wireLoad{xml: gen.ItemXML(seed, tcpItemPool), state: state}
}

func (l wireLoad) message(source string, seq uint64) wire.Message {
	if seq%tcpPartialGap == 0 {
		return &wire.Partial{Fn: "freq", Window: seq, Key: "eu-west", Source: source, Count: 4000, State: l.state}
	}
	return &wire.Item{Stream: "s3@" + source, Seq: seq, TimeNS: seq * 1_000_000, XML: l.xml[seq%uint64(len(l.xml))]}
}

// wireSource is the driver's state for one sending endpoint.
type wireSource struct {
	tr    transport.Transport
	slots chan struct{} // one token per message in flight; the ack handler frees it

	mu     sync.Mutex // the ack handler runs on the transport's read goroutine
	origin time.Time
	sentAt []int64 // ns since origin, by sequence number
	acked  []uint8 // acks received, by sequence number
	lat    []int64
	next   uint64
}

// wireDriver runs the closed loop on any Transport backend.
type wireDriver struct {
	c        *cluster
	load     wireLoad
	srcs     []*wireSource
	tr       *tracer
	speed    *speedometer
	sendNS   []int64 // caller-side cost of Send, traced runs only
	sendErrs atomic.Int64
	acks     atomic.Int64 // acks received by all sources: the progress counter
}

func newWireDriver(c *cluster, load wireLoad, tr *tracer, speed *speedometer) *wireDriver {
	d := &wireDriver{c: c, load: load, tr: tr, speed: speed}
	c.root.Handle(func(from string, m wire.Message) {
		var seq uint64
		switch v := m.(type) {
		case *wire.Item:
			seq = v.Seq
		case *wire.Partial:
			seq = v.Window
		default:
			return
		}
		sp := tr.begin("handler.root", noSpan, int64(seq))
		if err := c.root.Send(from, &wire.Ack{Seq: seq}); err != nil {
			d.sendErrs.Add(1)
		}
		tr.end(sp)
	})
	for _, t := range c.sources {
		s := &wireSource{tr: t, slots: make(chan struct{}, tcpInFlight), origin: time.Now(),
			sentAt: make([]int64, 1, 1<<16), acked: make([]uint8, 1, 1<<16)}
		t.Handle(func(_ string, m wire.Message) {
			ack, ok := m.(*wire.Ack)
			if !ok {
				return
			}
			sp := tr.begin("handler.ack", noSpan, int64(ack.Seq))
			now := int64(time.Since(s.origin))
			s.mu.Lock()
			if ack.Seq < uint64(len(s.acked)) {
				s.acked[ack.Seq]++
				s.lat = append(s.lat, now-s.sentAt[ack.Seq])
			}
			s.mu.Unlock()
			tr.end(sp)
			d.acks.Add(1)
			<-s.slots
		})
		d.srcs = append(d.srcs, s)
	}
	return d
}

// send ships the source's next message, waiting first for a free slot.
func (d *wireDriver) send(s *wireSource) {
	s.slots <- struct{}{}
	s.mu.Lock()
	s.next++
	seq := s.next
	s.sentAt = append(s.sentAt, int64(time.Since(s.origin)))
	s.acked = append(s.acked, 0)
	s.mu.Unlock()
	m := d.load.message(s.tr.Self(), seq)
	sp := d.tr.begin("transport.Send", noSpan, int64(seq))
	t0 := time.Now()
	err := s.tr.Send("root", m)
	if d.tr != nil {
		d.sendNS = append(d.sendNS, int64(time.Since(t0)))
	}
	d.tr.end(sp)
	if err != nil {
		d.sendErrs.Add(1)
		<-s.slots
	}
}

// hold takes n slots of every source out of circulation (phase A runs
// with all but one held) and release gives them back.
func (d *wireDriver) hold(n int) {
	for _, s := range d.srcs {
		for i := 0; i < n; i++ {
			s.slots <- struct{}{}
		}
	}
}

func (d *wireDriver) release(n int) {
	for _, s := range d.srcs {
		for i := 0; i < n; i++ {
			<-s.slots
		}
	}
}

// quiesce waits until the free slots of every source are all free again,
// i.e. every message sent was acked.
func (d *wireDriver) quiesce(free int) {
	d.hold(free)
	d.release(free)
}

// phase sends round-robin over the sources for the given time with
// `free` slots per source, then waits for the last acks. It returns the
// messages sent and the rate at which acks came back (median slice).
func (d *wireDriver) phase(dur time.Duration, free int) (int, float64) {
	d.hold(tcpInFlight - free)
	n, t0 := 0, time.Now()
	meter := newRateMeter(d.speed, func() float64 { return float64(d.acks.Load()) })
	for time.Since(t0) < dur {
		for _, s := range d.srcs {
			d.send(s)
			n++
		}
		if n%tcpSlice == 0 {
			meter.mark()
		}
	}
	d.quiesce(free)
	rate, _ := meter.rate()
	d.release(tcpInFlight - free)
	return n, rate
}

func (d *wireDriver) takeLatencies() []int64 {
	var all []int64
	for _, s := range d.srcs {
		s.mu.Lock()
		all = append(all, s.lat...)
		s.lat = s.lat[:0]
		s.mu.Unlock()
	}
	return all
}

// check is the oracle: every sequence number acked exactly once.
func (d *wireDriver) check(res *run) {
	for _, s := range d.srcs {
		s.mu.Lock()
		for seq := uint64(1); seq <= s.next; seq++ {
			res.Attempted++
			if s.acked[seq] != 1 {
				res.fail(1, "%s seq %d acked %d times", s.tr.Self(), seq, s.acked[seq])
			}
		}
		s.mu.Unlock()
	}
	if n := d.sendErrs.Load(); n > 0 {
		res.fail(n, "%d Send calls failed", n)
	}
}

// setupWire builds a cluster and warms it up: the first message of each
// source dials, the first ack dials back.
func setupWire(cfg *config, load wireLoad, reg *telemetry.Registry) (*wireDriver, error) {
	c, err := listenCluster(reg)
	if err != nil {
		return nil, err
	}
	d := newWireDriver(c, load, cfg.Trace, cfg.Speed)
	for _, s := range d.srcs {
		d.send(s)
	}
	d.quiesce(tcpInFlight)
	d.takeLatencies()
	return d, nil
}

func runTransport(cfg *config) (*run, error) {
	res := newRun()
	load := newWireLoad(cfg.Seed)

	var d *wireDriver
	err := timeSetups(cfg, res, tcpSetupReps, func() { d.c.close() }, func(reg *telemetry.Registry) (err error) {
		d, err = setupWire(cfg, load, reg)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer d.c.close()

	d.phase(cfg.phase(tcpShareA), 1)
	lat := d.takeLatencies()
	p50 := res.setLatency(lat, cfg.Speed.take())

	m0, st0 := cfg.Speed.markMem(), d.c.stats()
	n, rate := d.phase(cfg.phase(1-tcpShareA), tcpInFlight)
	allocs, bytes := cfg.Speed.markMem().since(m0)
	st1 := d.c.stats()
	items := float64(n)
	res.setRate(rate, cfg.Speed.take(), n)
	res.set("allocs_per_item", allocs/items, n)
	res.set("alloc_bytes_per_item", bytes/items, n)
	res.set("net_bytes_per_item", float64(st1.SentBytes-st0.SentBytes)/items, n)

	d.check(res)
	if st1.Dropped > 0 {
		res.fail(int64(st1.Dropped), "Stats().Dropped = %d", st1.Dropped)
	}
	if cfg.Trace != nil {
		res.set("transport.send_ns", percentile(d.sendNS, 0.5), len(d.sendNS))
		res.set("transport.hop_us.tcp", p50/2e3, len(lat))
		res.set("transport.dropped", float64(st1.Dropped), int(st1.Sent))
		res.set("transport.reconnects", float64(st1.Reconnects), int(st1.Sent))
		if st1.Sent > 0 {
			res.set("transport.queue_drop_frac", float64(st1.Dropped)/float64(st1.Sent), int(st1.Sent))
		}
	}
	return res, nil
}

// replayTransport times the wire codec on the workload's messages and
// runs the same driver on the sim backend (codec without sockets).
func replayTransport(cfg *config, out *run) error {
	load := newWireLoad(cfg.Seed)
	msgs := map[string]wire.Message{
		"item":    load.message("s1", 1),
		"partial": load.message("s1", tcpPartialGap),
		"probe": &wire.Probe{Seq: 12, Updates: []wire.GossipUpdate{
			{Peer: "n4", Status: wire.StatusSuspect, Inc: 3}, {Peer: "n7", Status: wire.StatusAlive, Inc: 9}}},
	}
	for _, kind := range []string{"item", "partial", "probe"} {
		m := msgs[kind]
		enc := wire.Encode(m)
		if _, err := wire.Decode(enc); err != nil {
			return fmt.Errorf("decoding a %s frame: %w", kind, err)
		}
		setTime(cfg, out, "wire.encode_ns."+kind, 1, func(int) { wire.Encode(m) })
		setTime(cfg, out, "wire.decode_ns."+kind, 1, func(int) { wire.Decode(enc) }) //nolint:errcheck // decoded above
	}
	item := msgs["item"]
	enc := wire.Encode(item)
	out.set("wire.encode_allocs.item", allocsOp(4096, func(int) { wire.Encode(item) }), 4096)
	out.set("wire.decode_allocs.item", allocsOp(4096, func(int) { wire.Decode(enc) }), 4096) //nolint:errcheck // decoded above
	out.set("wire.size_bytes.item", float64(wire.Size(item)), 1)

	sim := newWireDriver(simCluster(), load, nil, cfg.Speed)
	id := cfg.Trace.begin("replay.transport.sim", noSpan, -1)
	sim.phase(cfg.phase(tcpShareA)/2, 1)
	lat := sim.takeLatencies()
	n, rate := sim.phase(cfg.phase(1-tcpShareA)/2, tcpInFlight)
	cfg.Trace.end(id)
	cfg.Speed.take() // the sim rows are as measured
	sim.check(out)
	out.set("transport.hop_us.sim", percentile(lat, 0.50)/2e3, len(lat))
	out.set("transport.items_per_s.sim", rate, n)
	return nil
}
