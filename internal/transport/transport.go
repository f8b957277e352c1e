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
	"p2pm/internal/stream"
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

// Link is the minimal fault-aware item-delivery surface the in-process
// control plane (internal/peer) needs from its substrate. The concrete
// simnet.Network satisfies it; peer.System talks to this seam rather
// than to simnet directly, which is what keeps the deployed-operator
// data plane portable to other substrates.
type Link interface {
	// Deliver ships an item across the from→to link under the fault
	// model, returning it latency-stamped and whether it arrived.
	Deliver(from, to string, it stream.Item) (stream.Item, bool)
	// CountTransfer accounts one control-plane message on a link.
	CountTransfer(from, to string, bytes int)
}
