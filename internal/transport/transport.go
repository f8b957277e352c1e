// Package transport abstracts inter-peer message exchange behind one
// interface with two backends: the deterministic in-process simnet
// substrate every test and experiment runs on, and a tcp backend that
// speaks length-prefixed wire frames between OS processes over real
// sockets. Both carry the same internal/wire messages with the same
// byte accounting, so the monitor's protocols — stream delivery,
// partial aggregation, gossip detection, checkpointing — behave
// identically whether the peers share a process or a network
// (docs/TRANSPORT.md; the backend-equivalence tests pin it).
package transport

import (
	"p2pm/internal/telemetry"
	"p2pm/internal/wire"
)

// Handler consumes one delivered message. Handlers run synchronously
// on the delivering goroutine (simnet: the sender; tcp: the
// connection's read loop), so per-link message order is preserved.
// A handler may call Send, including back to the sender.
type Handler func(from string, m wire.Message)

// Transport is one peer's connection to the cluster: a name, a way to
// send a wire message to another named peer, and a handler for what
// arrives. Delivery is at-most-once and unordered across links —
// reliability (resend-until-ack, dedup) belongs to the protocol above,
// which is what makes the same protocol code run unchanged over the
// lossy simnet fault model and over real sockets that reset.
type Transport interface {
	// Self returns this endpoint's peer name.
	Self() string
	// Send enqueues a message to a named peer. It never blocks on the
	// network: a dead or slow peer costs queue space, not caller time,
	// and overflow is counted in Stats().Dropped. An unknown peer is
	// an error.
	Send(to string, m wire.Message) error
	// Handle installs the delivery handler. Install before traffic
	// flows; messages arriving with no handler are dropped.
	Handle(h Handler)
	// Peers lists the peer names this endpoint can Send to, sorted.
	Peers() []string
	// Stats returns a snapshot of the endpoint's traffic counters.
	Stats() Stats
	// Close releases the endpoint. Further Sends error.
	Close() error
}

// Stats is a snapshot of one endpoint's traffic.
type Stats struct {
	// Sent / SentBytes count messages handed to the substrate.
	Sent, SentBytes uint64
	// Received / ReceivedBytes count messages delivered to the handler.
	Received, ReceivedBytes uint64
	// Dropped counts messages lost at this endpoint: outbound queue
	// overflow, undecodable inbound frames, simnet link faults.
	Dropped uint64
	// Reconnects counts re-established outbound connections (tcp only).
	Reconnects uint64
}

// counters is one endpoint's traffic, embedded by both backends. Each
// number lives here and nowhere else: the send and receive paths
// increment these fields, Stats() reads them, and export hands the
// same fields to a telemetry registry.
type counters struct {
	sent, sentBytes, recv, recvBytes, dropped, reconnects telemetry.Counter
	decode                                                wire.Stats
}

// Stats snapshots the endpoint's counters.
func (c *counters) Stats() Stats {
	return Stats{
		Sent:          c.sent.Value(),
		SentBytes:     c.sentBytes.Value(),
		Received:      c.recv.Value(),
		ReceivedBytes: c.recvBytes.Value(),
		Dropped:       c.dropped.Value(),
		Reconnects:    c.reconnects.Value(),
	}
}

// export attaches the endpoint's counters, and its wire decode stats,
// to reg as transport_*_total / wire_*_total. Every series carries
// backend= (sim|tcp) and peer= (the endpoint's own name), so a
// multi-endpoint process (every simnet test, the p2pmon net root)
// exports per-peer traffic without colliding. A nil reg exports
// nothing.
func (c *counters) export(reg *telemetry.Registry, backend, self string) {
	if reg == nil {
		return
	}
	ls := []telemetry.Label{telemetry.L("backend", backend), telemetry.L("peer", self)}
	reg.Attach("transport_sent_total", &c.sent, ls...)
	reg.Attach("transport_sent_bytes_total", &c.sentBytes, ls...)
	reg.Attach("transport_recv_total", &c.recv, ls...)
	reg.Attach("transport_recv_bytes_total", &c.recvBytes, ls...)
	reg.Attach("transport_dropped_total", &c.dropped, ls...)
	reg.Attach("transport_reconnects_total", &c.reconnects, ls...)
	c.decode.Instrument(reg, ls...)
}
