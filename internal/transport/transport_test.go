package transport

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"p2pm/internal/simnet"
	"p2pm/internal/telemetry"
	"p2pm/internal/wire"
)

// collector is a test handler accumulating deliveries.
type collector struct {
	mu   sync.Mutex
	got  []wire.Message
	from []string
	cond *sync.Cond
}

func newCollector() *collector {
	c := &collector{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collector) handle(from string, m wire.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, m)
	c.from = append(c.from, from)
	c.cond.Broadcast()
}

// waitN blocks until n messages arrived or the deadline passes.
func (c *collector) waitN(t *testing.T, n int, d time.Duration) []wire.Message {
	t.Helper()
	deadline := time.Now().Add(d)
	timer := time.AfterFunc(d, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.got) < n && time.Now().Before(deadline) {
		c.cond.Wait()
	}
	if len(c.got) < n {
		t.Fatalf("got %d messages, want %d", len(c.got), n)
	}
	return append([]wire.Message(nil), c.got...)
}

// ---------------------------------------------------------------------
// SimNet backend

func TestSimNetDelivers(t *testing.T) {
	sn := NewSimNet(simnet.New(simnet.Options{Seed: 1}))
	a := sn.Endpoint("a")
	b := sn.Endpoint("b")
	c := newCollector()
	b.Handle(c.handle)
	if err := a.Send("b", &wire.Partial{Fn: "count", Window: 2, Source: "a", Count: 3, State: "3"}); err != nil {
		t.Fatal(err)
	}
	got := c.waitN(t, 1, time.Second)
	p, ok := got[0].(*wire.Partial)
	if !ok || p.Window != 2 || p.State != "3" {
		t.Fatalf("delivered %#v", got[0])
	}
	if c.from[0] != "a" {
		t.Errorf("from = %q, want a", c.from[0])
	}
	// Byte accounting landed on the simulated link.
	if ls := sn.Net().Link("a", "b"); ls.Messages != 1 || ls.Bytes == 0 {
		t.Errorf("link a->b = %+v, want 1 accounted message", ls)
	}
	if st := a.Stats(); st.Sent != 1 || st.Dropped != 0 {
		t.Errorf("sender stats %+v", st)
	}
	if st := b.Stats(); st.Received != 1 {
		t.Errorf("receiver stats %+v", st)
	}
}

func TestSimNetFaultsDrop(t *testing.T) {
	nw := simnet.New(simnet.Options{Seed: 1})
	sn := NewSimNet(nw)
	a := sn.Endpoint("a")
	b := sn.Endpoint("b")
	c := newCollector()
	b.Handle(c.handle)
	if err := nw.Crash("b"); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", &wire.Probe{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Dropped != 1 {
		t.Errorf("sender dropped = %d, want 1 (crashed target)", st.Dropped)
	}
	if err := nw.Recover("b"); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", &wire.Probe{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	got := c.waitN(t, 1, time.Second)
	if p := got[0].(*wire.Probe); p.Seq != 2 {
		t.Errorf("delivered probe %d, want 2 (probe 1 was lost to the crash)", p.Seq)
	}
}

func TestSimNetUnknownPeerAndClose(t *testing.T) {
	sn := NewSimNet(simnet.New(simnet.Options{Seed: 1}))
	a := sn.Endpoint("a")
	if err := a.Send("ghost", &wire.Probe{}); err == nil {
		t.Error("send to unknown peer should error")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b := sn.Endpoint("b")
	if err := a.Send("b", &wire.Probe{}); err == nil {
		t.Error("send on closed endpoint should error")
	}
	// A frame the link carried to a closed endpoint is lost there: the
	// sender counts it sent, the receiver counts it dropped, and nobody
	// counts it received.
	if err := b.Send("a", &wire.Probe{}); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Sent != 1 || st.Dropped != 0 {
		t.Errorf("sender stats = %+v, want Sent 1, Dropped 0", st)
	}
	if st := a.Stats(); st.Received != 0 || st.Dropped != 1 {
		t.Errorf("closed receiver stats = %+v, want Received 0, Dropped 1", st)
	}
}

// TestSimSendAllocsIgnoreRegistry: the send path is the same
// instructions with and without a registry — exporting an endpoint's
// counters adds no allocation to Send.
func TestSimSendAllocsIgnoreRegistry(t *testing.T) {
	allocs := func(reg *telemetry.Registry) float64 {
		sn := NewSimNet(simnet.New(simnet.Options{Seed: 1}))
		sn.Instrument(reg)
		a, b := sn.Endpoint("a"), sn.Endpoint("b")
		b.Handle(func(string, wire.Message) {})
		m := &wire.Item{Stream: "s1@a", Seq: 1, XML: "<r/>"}
		return testing.AllocsPerRun(200, func() {
			if err := a.Send("b", m); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain, exported := allocs(nil), allocs(telemetry.NewRegistry())
	if plain != exported {
		t.Errorf("Send allocates %.1f/op plain, %.1f/op with a registry", plain, exported)
	}
}

// TestRegistryReadsTheLayersOwnCounters: on both backends every
// transport_* and wire_* series of docs/TELEMETRY.md reads what
// Stats() and the endpoint's decode stats read — sends, receives, a
// frame the link lost, a garbage frame — because the registry exports
// the endpoint's own fields. (internal/peer's test of the same name
// walks the rest of the catalog.)
func TestRegistryReadsTheLayersOwnCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	nw := simnet.New(simnet.Options{Seed: 1})
	sn := NewSimNet(nw)
	a := sn.Endpoint("a") // exists before Instrument
	sn.Instrument(reg)
	sn.Instrument(reg) // idempotent
	b, c := sn.Endpoint("b"), sn.Endpoint("c")
	b.Handle(func(string, wire.Message) {})
	for i := 0; i < 3; i++ {
		a.Send("b", &wire.Item{Stream: "s1@a", Seq: uint64(i), XML: "<r/>"}) //nolint:errcheck
	}
	nw.Crash("c")
	a.Send("c", &wire.Probe{})                     //nolint:errcheck // lost on the link
	b.deliver("a", []byte{0xde, 0xad, 0xbe, 0xef}) // garbage past the link

	ta, tb := tcpPair(t, TCPOptions{Telemetry: reg})
	cb := newCollector()
	tb.Handle(cb.handle)
	ta.Send("b", &wire.Probe{Seq: 1}) //nolint:errcheck
	cb.waitN(t, 1, 5*time.Second)

	snap := reg.Snapshot()
	check := func(backend, peer string, cs *counters) {
		t.Helper()
		st := cs.Stats()
		for name, want := range map[string]uint64{
			"transport_sent_total":       st.Sent,
			"transport_sent_bytes_total": st.SentBytes,
			"transport_recv_total":       st.Received,
			"transport_recv_bytes_total": st.ReceivedBytes,
			"transport_dropped_total":    st.Dropped,
			"transport_reconnects_total": st.Reconnects,
			"wire_decoded_total":         cs.decode.Decoded(),
			"wire_dropped_total":         cs.decode.Dropped(),
		} {
			m, ok := snap.Get(name, telemetry.L("backend", backend), telemetry.L("peer", peer))
			if !ok || m.Kind != telemetry.KindCounter || uint64(m.Value) != want {
				t.Errorf("%s{backend=%s,peer=%s} = %d (present %v), the endpoint reads %d", name, backend, peer, m.Value, ok, want)
			}
		}
	}
	check("sim", "a", &a.counters)
	check("sim", "b", &b.counters)
	check("sim", "c", &c.counters)
	check("tcp", "a", &ta.counters)
	check("tcp", "b", &tb.counters)
	if st := a.Stats(); st.Sent != 4 || st.Dropped != 1 {
		t.Errorf("sim a = %+v, want Sent 4, Dropped 1", st)
	}
	if st := b.Stats(); st.Received != 3 || st.Dropped != 1 || b.decode.Dropped() != 1 {
		t.Errorf("sim b = %+v (wire dropped %d), want Received 3, Dropped 1, wire dropped 1", st, b.decode.Dropped())
	}
	if ta.Stats().Reconnects != 1 || tb.decode.Decoded() != 2 {
		t.Errorf("tcp a reconnects = %d, tcp b decoded = %d, want 1 and 2 (hello + probe)", ta.Stats().Reconnects, tb.decode.Decoded())
	}
}

// ---------------------------------------------------------------------
// TCP backend

// tcpPair builds two connected loopback endpoints.
func tcpPair(t *testing.T, opts TCPOptions) (*TCP, *TCP) {
	t.Helper()
	a, err := ListenTCP("a", "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP("b", "127.0.0.1:0", opts)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.AddPeer("b", b.Addr())
	b.AddPeer("a", a.Addr())
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestTCPDeliversBothWays(t *testing.T) {
	a, b := tcpPair(t, TCPOptions{})
	ca, cb := newCollector(), newCollector()
	a.Handle(ca.handle)
	b.Handle(cb.handle)
	for i := 1; i <= 5; i++ {
		if err := a.Send("b", &wire.Item{Stream: "s1@a", Seq: uint64(i), XML: "<r/>"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Send("a", &wire.Ack{Seq: 9}); err != nil {
		t.Fatal(err)
	}
	got := cb.waitN(t, 5, 5*time.Second)
	for i, m := range got {
		it, ok := m.(*wire.Item)
		if !ok || it.Seq != uint64(i+1) {
			t.Fatalf("message %d = %#v, want item seq %d (per-link order preserved)", i, m, i+1)
		}
	}
	back := ca.waitN(t, 1, 5*time.Second)
	if ack, ok := back[0].(*wire.Ack); !ok || ack.Seq != 9 {
		t.Fatalf("reverse message %#v", back[0])
	}
	if cb.from[0] != "a" {
		t.Errorf("hello attribution: from = %q, want a", cb.from[0])
	}
}

func TestTCPReconnectsAfterConnKill(t *testing.T) {
	a, b := tcpPair(t, TCPOptions{BackoffMin: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond})
	cb := newCollector()
	b.Handle(cb.handle)
	if err := a.Send("b", &wire.Probe{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	cb.waitN(t, 1, 5*time.Second)
	// Kill every live connection; the writer must re-dial and later
	// traffic must flow.
	a.DropConnections()
	b.DropConnections()
	for i := 2; i <= 4; i++ {
		if err := a.Send("b", &wire.Probe{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := cb.waitN(t, 4, 10*time.Second)
	if p := got[3].(*wire.Probe); p.Seq != 4 {
		t.Fatalf("last probe %d, want 4", p.Seq)
	}
	if st := a.Stats(); st.Reconnects < 2 {
		t.Errorf("reconnects = %d, want >= 2 (initial dial + re-dial)", st.Reconnects)
	}
}

func TestTCPQueueOverflowDropsNotBlocks(t *testing.T) {
	// Peer address points at a listener that was closed: dials fail,
	// the queue fills, and Send must keep returning without blocking.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr().String()
	dead.Close()
	a, err := ListenTCP("a", "127.0.0.1:0", TCPOptions{QueueDepth: 4, BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.AddPeer("gone", addr)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			a.Send("gone", &wire.Probe{Seq: uint64(i)}) //nolint:errcheck // overflow is the point
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on a dead peer")
	}
	// The bound counts messages: at most QueueDepth wait in the link,
	// and nothing was written, so all but that many were dropped.
	if st := a.Stats(); st.Dropped < 100-2*4 {
		t.Errorf("dropped = %d of 100 with QueueDepth 4, want >= %d; stats %+v", st.Dropped, 100-2*4, st)
	}
}

func TestTCPRefusesForeignCluster(t *testing.T) {
	a, err := ListenTCP("a", "127.0.0.1:0", TCPOptions{Cluster: "demo"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ca := newCollector()
	a.Handle(ca.handle)
	// A peer from another cluster dials and sends: nothing may reach
	// the handler.
	x, err := ListenTCP("x", "127.0.0.1:0", TCPOptions{Cluster: "other", BackoffMin: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	x.AddPeer("a", a.Addr())
	x.Send("a", &wire.Probe{Seq: 1}) //nolint:errcheck
	time.Sleep(200 * time.Millisecond)
	ca.mu.Lock()
	n := len(ca.got)
	ca.mu.Unlock()
	if n != 0 {
		t.Errorf("foreign-cluster message reached the handler")
	}
}

func TestTCPGarbageFrameCountedDropped(t *testing.T) {
	a, err := ListenTCP("a", "127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ca := newCollector()
	a.Handle(ca.handle)
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	write := func(payload []byte) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		conn.Write(hdr[:])  //nolint:errcheck
		conn.Write(payload) //nolint:errcheck
	}
	// Valid hello, then a garbage frame, then a valid message: the
	// garbage lands in Dropped, the valid message still arrives.
	write(wire.Encode(&wire.Hello{Peer: "z", Proto: wire.ProtoVersion, Cluster: "p2pm"}))
	write([]byte{0xde, 0xad, 0xbe, 0xef})
	write(wire.Encode(&wire.Probe{Seq: 3}))
	got := ca.waitN(t, 1, 5*time.Second)
	if p, ok := got[0].(*wire.Probe); !ok || p.Seq != 3 {
		t.Fatalf("got %#v", got[0])
	}
	if st := a.Stats(); st.Dropped != 1 {
		t.Errorf("dropped = %d, want 1 (the garbage frame)", st.Dropped)
	}
}

func TestTCPUnknownPeerAndClosedSend(t *testing.T) {
	a, err := ListenTCP("a", "127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("ghost", &wire.Probe{}); err == nil {
		t.Error("send to unknown peer should error")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("ghost", &wire.Probe{}); err == nil {
		t.Error("send on closed endpoint should error")
	}
	if err := a.Close(); err != nil {
		t.Error("double close should be a no-op:", err)
	}
}
