package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2pm/internal/telemetry"
	"p2pm/internal/wire"
)

// TCPOptions tune the socket backend. The zero value takes every
// default; see docs/TRANSPORT.md for the tuning table.
type TCPOptions struct {
	// Cluster names the deployment. Both ends of a connection must
	// agree (the Hello handshake enforces it) so two clusters sharing
	// a host list cannot silently cross-feed. Default "p2pm".
	Cluster string
	// DialTimeout bounds one outbound connection attempt. Default 2s.
	DialTimeout time.Duration
	// ReadTimeout is the deadline of one socket read on an inbound
	// connection: a link idle longer than this is closed and the
	// sender reconnects. Keep it above the protocol's heartbeat
	// period. Default 30s.
	ReadTimeout time.Duration
	// WriteTimeout bounds one socket write: a run of whole frames of
	// at most 64 KiB, or one larger frame. Default 5s.
	WriteTimeout time.Duration
	// BackoffMin/BackoffMax bound the exponential reconnect backoff
	// after a failed dial or a broken connection. Defaults 50ms / 2s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// QueueDepth is the per-peer outbound queue capacity, in
	// messages not yet handed to a socket whole. A full queue drops
	// the newest message into Stats().Dropped — the transport never
	// blocks the caller on a dead peer; resend-until-ack above
	// recovers. Default 512.
	QueueDepth int
	// MaxFrame bounds one frame's payload; an inbound length header
	// beyond it closes the connection (framing is assumed lost).
	// A connection that has not yet said Hello is held to the 64 KiB
	// read buffer instead. Default 4 MiB.
	MaxFrame int
	// Telemetry, when non-nil, exports the endpoint's traffic counters
	// (transport_*_total, wire_*_total; labels backend="tcp",
	// peer=<self>) through the given registry — the same counters
	// Stats() reads, so the endpoint runs identically without one.
	Telemetry *telemetry.Registry
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.Cluster == "" {
		o.Cluster = "p2pm"
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 30 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 5 * time.Second
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 512
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = 4 << 20
	}
	return o
}

// TCP is the socket transport backend: wire messages in length-
// prefixed frames (uint32 big-endian payload length, then the message
// bytes) over one pooled outbound connection per peer. Send encodes
// straight into the link's pending buffer; a writer goroutine per link
// swaps that buffer for its spare and hands the whole run of frames to
// the socket in one write, dials lazily, re-dials with exponential
// backoff when the peer is away, and after a failed write resumes at
// the first frame the write cut short — so a connection reset loses
// nothing from the queue, and ordering within the link is preserved.
// Inbound connections authenticate with a Hello frame naming the
// dialing peer, then stream frames out of a buffered reader to the
// handler on the connection's read goroutine.
type TCP struct {
	self string
	opts TCPOptions
	ln   net.Listener

	handler atomic.Pointer[Handler]

	mu     sync.Mutex
	peers  map[string]*tcpPeer
	conns  map[net.Conn]struct{} // live inbound conns (for DropConnections/Close)
	closed bool
	done   chan struct{} // closed by Close; wakes writers out of queue waits and backoff sleeps

	wg sync.WaitGroup

	counters
}

// tcpPeer is one outbound link: address, queue, and the writer's
// current connection.
type tcpPeer struct {
	name string
	addr string
	wake chan struct{} // 1 slot: pending went from empty to not

	qmu     sync.Mutex // never held across I/O, so Send never waits on the network
	pending []byte     // frames (length prefix + message) the writer has not taken yet
	queued  int        // messages in pending plus those in the writer's hands not yet written whole

	mu   sync.Mutex
	conn net.Conn

	backoff time.Duration // the writer's current reconnect delay
}

const (
	// flushCap bounds the run of whole frames handed to one socket
	// write, so WriteTimeout bounds a fixed amount of work however long
	// the backlog; a single frame larger than this still goes out in one
	// write.
	flushCap = 64 << 10
	// readBufSize is an inbound connection's frame buffer: frames up to
	// this size are decoded in place, and nothing larger is accepted
	// before Hello.
	readBufSize = 64 << 10
	// keepBuf is the largest link buffer the writer keeps for reuse;
	// one that a burst of large frames grew beyond it is released.
	keepBuf = 1 << 20
)

// appendFrame appends one length-prefixed frame carrying m.
func appendFrame(dst []byte, m wire.Message) []byte {
	off := len(dst)
	dst = wire.AppendEncode(append(dst, 0, 0, 0, 0), m)
	binary.BigEndian.PutUint32(dst[off:], uint32(len(dst)-off-4))
	return dst
}

// wholeFrames walks the frames at the head of b and returns the end
// offset and count of those lying entirely within the first limit
// bytes.
func wholeFrames(b []byte, limit int) (end, n int) {
	for len(b)-end >= 4 {
		next := end + 4 + int(binary.BigEndian.Uint32(b[end:]))
		if next > limit || next > len(b) {
			break
		}
		end, n = next, n+1
	}
	return end, n
}

var _ Transport = (*TCP)(nil)

// ListenTCP opens the endpoint: it binds addr for inbound connections
// and returns immediately; outbound links appear via AddPeer.
func ListenTCP(self, addr string, opts TCPOptions) (*TCP, error) {
	if self == "" {
		return nil, fmt.Errorf("transport: tcp endpoint needs a peer name")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &TCP{
		self:  self,
		opts:  opts.withDefaults(),
		ln:    ln,
		peers: make(map[string]*tcpPeer),
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}
	t.export(t.opts.Telemetry, "tcp", self)
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with ":0").
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Self returns the endpoint's peer name.
func (t *TCP) Self() string { return t.self }

// Handle installs the delivery handler.
func (t *TCP) Handle(h Handler) { t.handler.Store(&h) }

// AddPeer registers a named peer's dial address and starts its
// outbound writer. Re-adding an existing peer updates nothing.
func (t *TCP) AddPeer(name, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || name == t.self {
		return
	}
	if _, ok := t.peers[name]; ok {
		return
	}
	p := &tcpPeer{name: name, addr: addr, wake: make(chan struct{}, 1), backoff: t.opts.BackoffMin}
	t.peers[name] = p
	t.wg.Add(1)
	go t.writeLoop(p)
}

// Peers lists the registered outbound peers, sorted.
func (t *TCP) Peers() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.peers))
	for n := range t.peers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Send encodes one message into the peer's outbound buffer. It never
// blocks on the network: a full queue (peer dead longer than the
// queue absorbs) drops the message into Stats().Dropped.
func (t *TCP) Send(to string, m wire.Message) error {
	t.mu.Lock()
	p := t.peers[to]
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return fmt.Errorf("transport: endpoint %s is closed", t.self)
	}
	if p == nil {
		return fmt.Errorf("transport: unknown peer %q", to)
	}
	p.qmu.Lock()
	if p.queued >= t.opts.QueueDepth {
		p.qmu.Unlock()
		t.dropped.Inc()
		return nil
	}
	before := len(p.pending)
	p.pending = appendFrame(p.pending, m)
	n := uint64(len(p.pending) - before - 4)
	p.queued++
	p.qmu.Unlock()
	if before == 0 {
		select {
		case p.wake <- struct{}{}:
		default: // a wake-up is already waiting for the writer
		}
	}
	t.sent.Inc()
	t.sentBytes.Add(n)
	return nil
}

// DropConnections force-closes every live connection, inbound and
// outbound, without closing the endpoint: writers re-dial with
// backoff, readers end, queued messages stay queued. The backend-
// equivalence churn tests use it as the socket analogue of a link
// fault.
func (t *TCP) DropConnections() {
	t.mu.Lock()
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	for _, p := range peers {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		p.mu.Unlock()
	}
}

// Close shuts the endpoint down: the listener stops, all connections
// close, the writer goroutines end. Queued-but-unsent messages are
// counted dropped.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	close(t.done)
	t.ln.Close()
	for _, p := range peers {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		p.mu.Unlock()
	}
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	return nil
}

func (t *TCP) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// ---------------------------------------------------------------------
// Outbound

// writeLoop drains one peer's buffer: swap pending for the spare and
// flush the frames taken, or sleep until Send wakes it. On Close,
// whatever is still queued is counted dropped.
func (t *TCP) writeLoop(p *tcpPeer) {
	defer t.wg.Done()
	defer t.dropQueued(p)
	var batch []byte // the writer's buffer; after a swap, the frames to write
	for {
		if cap(batch) > keepBuf {
			batch = nil
		}
		p.qmu.Lock()
		batch, p.pending = p.pending, batch[:0]
		p.qmu.Unlock()
		if len(batch) == 0 {
			select {
			case <-t.done:
				return
			case <-p.wake:
				continue
			}
		}
		if !t.flush(p, batch) {
			return
		}
	}
}

// flush hands the socket a batch of whole frames, one bounded run per
// write, dialing (with backoff) when no connection is up. After a
// failed write it reconnects and resumes at the first frame that write
// cut short: frames that went out whole are not resent, and the link
// never loses what it took. It reports false if the endpoint closed
// first.
func (t *TCP) flush(p *tcpPeer, batch []byte) bool {
	for len(batch) > 0 {
		conn, fresh := t.ensureConn(p)
		if conn == nil {
			if t.isClosed() {
				return false
			}
			select {
			case <-t.done:
			case <-time.After(p.backoff):
			}
			p.backoff = min(p.backoff*2, t.opts.BackoffMax)
			continue
		}
		if fresh {
			p.backoff = t.opts.BackoffMin
		}
		end, frames := wholeFrames(batch, flushCap)
		if end == 0 { // one frame larger than flushCap
			end, frames = 4+int(binary.BigEndian.Uint32(batch)), 1
		}
		n, err := t.writeTimed(conn, batch[:end])
		if err != nil {
			p.mu.Lock()
			if p.conn == conn {
				p.conn = nil
			}
			p.mu.Unlock()
			conn.Close()
			end, frames = wholeFrames(batch[:end], n)
		}
		batch = batch[end:]
		p.qmu.Lock()
		p.queued -= frames
		p.qmu.Unlock()
	}
	return true
}

// dropQueued empties the link's queue into the dropped count.
func (t *TCP) dropQueued(p *tcpPeer) {
	p.qmu.Lock()
	defer p.qmu.Unlock()
	t.dropped.Add(uint64(p.queued))
	p.queued = 0
	p.pending = nil
}

// ensureConn returns the peer's live connection, dialing one (and
// sending the Hello handshake) if needed. fresh reports a new dial.
func (t *TCP) ensureConn(p *tcpPeer) (net.Conn, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		return p.conn, false
	}
	if t.isClosed() {
		return nil, false
	}
	conn, err := net.DialTimeout("tcp", p.addr, t.opts.DialTimeout)
	if err != nil {
		return nil, false
	}
	hello := appendFrame(nil, &wire.Hello{Peer: t.self, Proto: wire.ProtoVersion, Cluster: t.opts.Cluster})
	if _, err := t.writeTimed(conn, hello); err != nil {
		conn.Close()
		return nil, false
	}
	p.conn = conn
	t.reconnects.Inc()
	return conn, true
}

// writeTimed hands b to the socket under one write deadline and
// reports how many bytes the socket took.
func (t *TCP) writeTimed(conn net.Conn, b []byte) (int, error) {
	if err := conn.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout)); err != nil {
		return 0, err
	}
	return conn.Write(b)
}

// ---------------------------------------------------------------------
// Inbound

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

// readLoop authenticates one inbound connection via its Hello frame
// and then dispatches every following frame to the handler. A corrupt
// message inside an intact frame is counted dropped and skipped; a
// corrupt frame header (length beyond MaxFrame) abandons the
// connection, because framing sync is gone.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	from := ""
	fr := newFrameReader(deadlineReader{conn, t.opts.ReadTimeout}, readBufSize, t.opts.MaxFrame)
	for {
		b, err := fr.next(from != "")
		if err != nil {
			if errors.Is(err, errFrameTooBig) {
				t.dropped.Inc()
			}
			return
		}
		m, err := t.decode.Decode(b)
		if err != nil {
			t.dropped.Inc()
			continue
		}
		if from == "" {
			h, ok := m.(*wire.Hello)
			if !ok || h.Peer == "" || h.Cluster != t.opts.Cluster {
				t.dropped.Inc()
				return // not one of ours: refuse the connection
			}
			from = h.Peer
			continue
		}
		h := t.handler.Load()
		if h == nil {
			t.dropped.Inc()
			continue
		}
		t.recv.Inc()
		t.recvBytes.Add(uint64(len(b)))
		(*h)(from, m)
	}
}

// deadlineReader refreshes the read deadline each time the frame
// reader goes to the socket, so ReadTimeout bounds how long a link may
// stay silent, not how long a buffered frame may wait its turn.
type deadlineReader struct {
	conn    net.Conn
	timeout time.Duration
}

func (r deadlineReader) Read(b []byte) (int, error) {
	if err := r.conn.SetReadDeadline(time.Now().Add(r.timeout)); err != nil {
		return 0, err
	}
	return r.conn.Read(b)
}

var errFrameTooBig = errors.New("transport: frame exceeds the size bound")

// frameReader splits a byte stream into length-prefixed frames over a
// fixed buffer. A frame that fits the buffer is returned in place; a
// larger one is assembled in a scratch slice the reader keeps.
type frameReader struct {
	br       *bufio.Reader
	maxFrame int
	consumed int    // bytes of the buffer the last returned frame occupies
	big      []byte // scratch for frames larger than the buffer
}

func newFrameReader(r io.Reader, bufSize, maxFrame int) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, bufSize), maxFrame: maxFrame}
}

// next returns the next frame's payload, valid until the following
// call. Frames beyond MaxFrame — or, while the connection is not yet
// trusted, beyond the buffer — fail with errFrameTooBig.
func (r *frameReader) next(trusted bool) ([]byte, error) {
	r.br.Discard(r.consumed) //nolint:errcheck // bytes already buffered
	r.consumed = 0
	hdr, err := r.br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := uint64(binary.BigEndian.Uint32(hdr))
	inBuf := 4+n <= uint64(r.br.Size())
	if n > uint64(r.maxFrame) || !(trusted || inBuf) {
		return nil, errFrameTooBig
	}
	if inBuf {
		b, err := r.br.Peek(4 + int(n))
		if err != nil {
			return nil, err
		}
		r.consumed = len(b)
		return b[4:], nil
	}
	r.br.Discard(4) //nolint:errcheck // the header just peeked
	if uint64(cap(r.big)) < n {
		r.big = make([]byte, n)
	}
	_, err = io.ReadFull(r.br, r.big[:n])
	return r.big[:n], err
}
