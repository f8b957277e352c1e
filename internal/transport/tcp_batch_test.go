package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pm/internal/wire"
)

// Tests of the batched tcp path: frames encoded into the link buffer,
// one socket write per run of frames, a buffered frame reader.

// rawHello is the handshake a raw test connection sends to pass for
// peer "z" of the default cluster.
func rawHello() []byte {
	return appendFrame(nil, &wire.Hello{Peer: "z", Proto: wire.ProtoVersion, Cluster: "p2pm"})
}

// readRawFrame is the naive reference reader: a header, then a body.
func readRawFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	b := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	_, err := io.ReadFull(r, b)
	return b, err
}

// waitDropped polls until the endpoint has counted n drops.
func waitDropped(t *testing.T, ep *TCP, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ep.Stats().Dropped < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("dropped = %d, want %d", ep.Stats().Dropped, n)
		}
	}
	if got := ep.Stats().Dropped; got != n {
		t.Fatalf("dropped = %d, want %d", got, n)
	}
}

// expectClosed asserts that the far side closes the connection.
func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // loopback
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("read a byte from a connection that should have been closed")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Error("connection still open after the refused frame")
	}
}

func TestWholeFrames(t *testing.T) {
	var b []byte
	var ends []int
	for i := 0; i < 5; i++ {
		b = appendFrame(b, &wire.Probe{Seq: uint64(1) << (10 * i)})
		ends = append(ends, len(b))
	}
	for limit := 0; limit <= len(b)+3; limit++ {
		wantEnd, wantN := 0, 0
		for i, e := range ends {
			if e <= limit {
				wantEnd, wantN = e, i+1
			}
		}
		if end, n := wholeFrames(b, limit); end != wantEnd || n != wantN {
			t.Errorf("wholeFrames(limit %d) = %d, %d; want %d, %d", limit, end, n, wantEnd, wantN)
		}
	}
	// A buffer cut mid-frame (never produced by Send; the walk must
	// still stop rather than run off the end).
	if end, n := wholeFrames(b[:ends[1]+2], len(b)); end != ends[1] || n != 2 {
		t.Errorf("cut buffer: got %d, %d; want %d, 2", end, n, ends[1])
	}
}

// TestTCPOversizedPreHelloRefused: a connection that has not said Hello
// cannot make the endpoint reserve more than its read buffer.
func TestTCPOversizedPreHelloRefused(t *testing.T) {
	a, err := ListenTCP("a", "127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := conn.Write([]byte{0, 0x10, 0, 0, 'P', 'W'}); err != nil { // announces 1 MiB
		t.Fatal(err)
	}
	expectClosed(t, conn)
	waitDropped(t, a, 1)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 512<<10 {
		t.Errorf("endpoint allocated %d bytes for an unauthenticated 1 MiB header", grew)
	}
}

// TestTCPLargeFrame: a frame far beyond the read buffer round-trips
// through the scratch slice; one past MaxFrame ends the connection.
func TestTCPLargeFrame(t *testing.T) {
	a, b := tcpPair(t, TCPOptions{})
	cb := newCollector()
	b.Handle(cb.handle)
	state := strings.Repeat("0123456789abcdef", 1<<16) // 1 MiB
	sizes := []int{100, len(state), 100, len(state)}   // in the buffer, through the scratch slice, and back
	for i, n := range sizes {
		if err := a.Send("b", &wire.Partial{Fn: "freq", Window: uint64(i), Source: "a", State: state[:n]}); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range cb.waitN(t, len(sizes), 10*time.Second) {
		p, ok := m.(*wire.Partial)
		if !ok || p.Window != uint64(i) || p.State != state[:sizes[i]] {
			t.Fatalf("message %d: got %T window %d, %d state bytes", i, m, p.Window, len(p.State))
		}
	}

	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(b.opts.MaxFrame+1))
	if _, err := conn.Write(append(rawHello(), hdr[:]...)); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn)
	waitDropped(t, b, 1)
}

// TestTCPHandlerMayRetain pins the Handler contract the buffered reader
// must not break: a delivered message never aliases the read buffer, so
// a handler may keep it while later frames overwrite that buffer.
func TestTCPHandlerMayRetain(t *testing.T) {
	const keep, total = 2000, 22000
	a, b := tcpPair(t, TCPOptions{QueueDepth: total})
	stream := func(i uint64) string { return fmt.Sprintf("s%d@a", i) }
	xml := func(i uint64) string {
		return fmt.Sprintf(`<reading n="%d" pad="%s"/>`, i, strings.Repeat("p", int(i%97)))
	}

	var mu sync.Mutex
	var items []*wire.Item
	var acks []*wire.Ack
	done := make(chan struct{})
	b.Handle(func(from string, m wire.Message) {
		it := m.(*wire.Item)
		mu.Lock()
		if len(items) < keep {
			items = append(items, it)
		}
		mu.Unlock()
		b.Send(from, &wire.Ack{Seq: it.Seq, Stream: it.Stream, Window: it.TimeNS}) //nolint:errcheck // peer is registered
	})
	a.Handle(func(_ string, m wire.Message) {
		ack := m.(*wire.Ack)
		mu.Lock()
		if len(acks) < keep {
			acks = append(acks, ack)
		}
		mu.Unlock()
		if ack.Seq == total {
			close(done)
		}
	})
	for i := uint64(1); i <= total; i++ {
		if err := a.Send("b", &wire.Item{Stream: stream(i), Seq: i, TimeNS: i * 1000, XML: xml(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("last ack never arrived; stats a %+v b %+v", a.Stats(), b.Stats())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(items) != keep || len(acks) != keep {
		t.Fatalf("retained %d items and %d acks, want %d each", len(items), len(acks), keep)
	}
	for i := range items {
		n := uint64(i + 1)
		if it := items[i]; it.Stream != stream(n) || it.Seq != n || it.TimeNS != n*1000 || it.XML != xml(n) || it.EOS {
			t.Fatalf("retained item %d was overwritten: %+v", n, it)
		}
		if ack := acks[i]; ack.Seq != n || ack.Stream != stream(n) || ack.Window != n*1000 || ack.Updates != nil {
			t.Fatalf("retained ack %d was overwritten: %+v", n, ack)
		}
	}
}

// TestTCPBatchResumeAfterPartialWrite: the receiver reads the Hello and
// k more bytes, then resets the connection while the writer is deep in
// a backlog far larger than the socket buffers. On the next connection
// every frame must arrive whole and in order, resuming at a frame
// boundary, and no frame the first connection received whole may come
// again.
func TestTCPBatchResumeAfterPartialWrite(t *testing.T) {
	const frames = 1500
	body := strings.Repeat("x", 10<<10) // 15 MB in all
	msg := func(i int) *wire.Partial { return &wire.Partial{Fn: "f", Window: uint64(i), State: body} }
	frameLen := 4 + wire.Size(msg(1)) // windows 1 and 2 encode to the same length
	for name, k := range map[string]int{
		"frame-boundary": 2 * frameLen,
		"mid-header":     2*frameLen + 2,
		"mid-body":       2*frameLen + 4 + 100,
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			a, err := ListenTCP("a", "127.0.0.1:0", TCPOptions{QueueDepth: frames, BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			a.AddPeer("raw", ln.Addr().String())
			for i := 1; i <= frames; i++ {
				if err := a.Send("raw", msg(i)); err != nil {
					t.Fatal(err)
				}
			}

			c1, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := readRawFrame(c1); err != nil {
				t.Fatal("hello on the first connection:", err)
			}
			if _, err := io.ReadFull(c1, make([]byte, k)); err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond) // not needed for the result: lets the writer run into full socket buffers
			c1.(*net.TCPConn).SetLinger(0)    //nolint:errcheck // close with a reset
			c1.Close()

			c2, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			c2.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck // loopback
			b, err := readRawFrame(c2)
			if err != nil {
				t.Fatal(err)
			}
			if h, ok := mustDecode(t, b).(*wire.Hello); !ok || h.Peer != "a" {
				t.Fatalf("second connection does not open with a's Hello: %x", b)
			}
			prev := uint64(0)
			for prev < frames {
				b, err := readRawFrame(c2)
				if err != nil {
					t.Fatalf("after window %d: %v", prev, err)
				}
				p, ok := mustDecode(t, b).(*wire.Partial)
				if !ok || p.State != body || p.Fn != "f" {
					t.Fatalf("torn frame after window %d", prev)
				}
				switch {
				case prev == 0 && p.Window <= 2:
					t.Fatalf("window %d came again; the first connection had received it whole", p.Window)
				case prev != 0 && p.Window != prev+1:
					t.Fatalf("window %d follows %d", p.Window, prev)
				}
				prev = p.Window
			}
			if st := a.Stats(); st.Dropped != 0 || st.Reconnects != 2 {
				t.Errorf("stats %+v, want no drops and exactly two dials", st)
			}
		})
	}
}

func mustDecode(t *testing.T, b []byte) wire.Message {
	t.Helper()
	m, err := wire.Decode(b)
	if err != nil {
		t.Fatalf("undecodable frame (%v): % x", err, b[:min(len(b), 32)])
	}
	return m
}

// TestTCPOrderUnderChurn drives 20 000 sequenced probes through a link
// whose connections are killed every 2 000.
func TestTCPOrderUnderChurn(t *testing.T) {
	const total, every = 20000, 2000
	run := func(t *testing.T, drop func(a, b *TCP, cb *collector, sent int)) []uint64 {
		a, b := tcpPair(t, TCPOptions{QueueDepth: total, BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond})
		cb := newCollector()
		b.Handle(cb.handle)
		for i := 1; i <= total; i++ {
			if err := a.Send("b", &wire.Probe{Seq: uint64(i)}); err != nil {
				t.Fatal(err)
			}
			if i%every == 0 {
				drop(a, b, cb, i)
			}
		}
		seqs := make([]uint64, 0, total)
		for _, m := range cb.waitN(t, total, 30*time.Second) {
			seqs = append(seqs, m.(*wire.Probe).Seq)
		}
		if st := a.Stats(); st.Dropped != 0 || st.Reconnects < total/every {
			t.Errorf("sender stats %+v, want no drops and a dial per kill", st)
		}
		return seqs
	}
	exactlyOnce := func(t *testing.T, seqs []uint64) {
		t.Helper()
		for i, s := range seqs {
			if s != uint64(i+1) {
				t.Fatalf("position %d holds probe %d (of %d received)", i, s, len(seqs))
			}
		}
	}
	// Killed while idle, on both sides: what arrives is the sequence
	// itself.
	t.Run("idle", func(t *testing.T) {
		exactlyOnce(t, run(t, func(a, b *TCP, cb *collector, sent int) {
			cb.waitN(t, sent, 30*time.Second)
			a.DropConnections()
			b.DropConnections()
		}))
	})
	// Killed mid-stream on the sending side, with half of the latest
	// 2 000 still queued or in flight: a closed socket still delivers
	// what it was handed, the writer resumes at the frame the kill cut
	// short, so every probe arrives exactly once. Order is asserted per
	// connection only (docs/TRANSPORT.md): the receiver may still be
	// draining the old connection when the new one starts.
	t.Run("mid-stream", func(t *testing.T) {
		seqs := run(t, func(a, _ *TCP, cb *collector, sent int) {
			cb.waitN(t, sent-every/2, 30*time.Second)
			a.DropConnections()
		})
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		exactlyOnce(t, seqs)
	})
}

// TestTCPSendSteadyStateAllocs: once the link buffers have grown, Send
// to a connected peer encodes in place and allocates nothing — and
// neither does the writer behind it (AllocsPerRun counts every
// goroutine).
func TestTCPSendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // a sink that reads whatever the link writes
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	a, err := ListenTCP("a", "127.0.0.1:0", TCPOptions{QueueDepth: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.AddPeer("sink", ln.Addr().String())
	m := &wire.Item{Stream: "s3@relay", Seq: 412, TimeNS: 9_500_000_000, XML: `<call id="7" method="Reserve" to="airline"/>`}
	send := func() { a.Send("sink", m) } //nolint:errcheck // peer is registered
	for i := 0; i < 20000; i++ {         // dial, and grow both link buffers
		send()
	}
	if n := testing.AllocsPerRun(5000, send); n != 0 {
		t.Errorf("steady-state Send allocates %v times per message, want 0", n)
	}
	if st := a.Stats(); st.Dropped != 0 {
		t.Errorf("stats %+v: the sink fell behind and the test measured the drop path", st)
	}
}

// TestTCPLoopbackAllocs pins what one item and its ack allocate across
// two ListenTCP endpoints with 64 items in flight, every goroutine
// counted: 5 per item, both directions and the handlers' Ack included.
// The readers and writers run beside the test, so it allows 5 %.
func TestTCPLoopbackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	src, err := ListenTCP("src", "127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := ListenTCP("dst", "127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	src.AddPeer("dst", dst.Addr())
	dst.AddPeer("src", src.Addr())
	dst.Handle(func(from string, m wire.Message) {
		dst.Send(from, &wire.Ack{Seq: m.(*wire.Item).Seq}) //nolint:errcheck // src is registered
	})
	slots := make(chan struct{}, 64) // items in flight; an ack frees one
	src.Handle(func(string, wire.Message) { <-slots })
	item := &wire.Item{Stream: "s3@relay", Seq: 412, TimeNS: 9_500_000_000, XML: `<call id="7" method="Reserve" to="airline"/>`}
	// One run sends a window of items and waits for every ack.
	window := func() {
		for i := 0; i < cap(slots); i++ {
			slots <- struct{}{}
			if err := src.Send("dst", item); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < cap(slots); i++ {
			slots <- struct{}{}
		}
		for i := 0; i < cap(slots); i++ {
			<-slots
		}
	}
	const want = 5
	if got := testing.AllocsPerRun(100, window) / float64(cap(slots)); got < want*0.95 || got > want*1.05 {
		t.Errorf("%.2f allocs per item and ack, want %d within 5 %%", got, want)
	}
	if st := src.Stats(); st.Dropped != 0 {
		t.Errorf("src stats %+v: an item was dropped", st)
	}
}

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool
