package transport

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"p2pm/internal/simnet"
	"p2pm/internal/telemetry"
	"p2pm/internal/wire"
)

// SimNet is the in-process transport backend: endpoints exchange wire
// messages over a simnet.Network, so every send pays the simulated
// link's fault model (crashes, partitions, injected loss) and lands in
// its per-link byte accounting — with pointer-free fidelity, because
// each message is encoded and re-decoded across the "link" exactly as
// the tcp backend would put it on a socket. Delivery is synchronous on
// the sender's goroutine, which keeps scenarios deterministic: same
// seed, same sends, same handler interleaving.
type SimNet struct {
	nw *simnet.Network

	mu  sync.Mutex
	eps map[string]*SimEndpoint
	reg *telemetry.Registry
}

// NewSimNet builds a transport registry over a simulated network.
func NewSimNet(nw *simnet.Network) *SimNet {
	return &SimNet{nw: nw, eps: make(map[string]*SimEndpoint)}
}

// Net exposes the underlying simulated network (fault injection,
// clock, traffic counters).
func (s *SimNet) Net() *simnet.Network { return s.nw }

// Instrument exports every endpoint's traffic and wire decode counters
// (current endpoints and future ones) through the telemetry registry,
// labeled backend="sim" and peer=<name>. Idempotent.
func (s *SimNet) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
	for _, ep := range s.eps {
		ep.export(reg, "sim", ep.name)
	}
}

// Endpoint registers (or returns) the named peer's endpoint, adding
// its node to the simulated network.
func (s *SimNet) Endpoint(name string) *SimEndpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ep, ok := s.eps[name]; ok {
		return ep
	}
	s.nw.AddNode(name)
	ep := &SimEndpoint{net: s, name: name}
	ep.export(s.reg, "sim", name)
	s.eps[name] = ep
	return ep
}

func (s *SimNet) endpoint(name string) *SimEndpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eps[name]
}

// SimEndpoint is one peer's transport over the simulated network.
type SimEndpoint struct {
	net  *SimNet
	name string

	handler atomic.Pointer[Handler]
	closed  atomic.Bool

	counters
}

var _ Transport = (*SimEndpoint)(nil)

// Self returns the endpoint's peer name.
func (ep *SimEndpoint) Self() string { return ep.name }

// Handle installs the delivery handler.
func (ep *SimEndpoint) Handle(h Handler) { ep.handler.Store(&h) }

// Peers lists every other registered endpoint, sorted.
func (ep *SimEndpoint) Peers() []string {
	ep.net.mu.Lock()
	defer ep.net.mu.Unlock()
	names := make([]string, 0, len(ep.net.eps)-1)
	for n := range ep.net.eps {
		if n != ep.name {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Send encodes the message, ships the bytes across the simulated
// from→to link (faults and accounting included), and — when the link
// delivers — re-decodes on the far side and runs the target's handler
// synchronously. Messages lost to the fault model count as Dropped on
// the sender, mirroring simnet's per-link dropped counters.
func (ep *SimEndpoint) Send(to string, m wire.Message) error {
	if ep.closed.Load() {
		return fmt.Errorf("transport: endpoint %s is closed", ep.name)
	}
	tgt := ep.net.endpoint(to)
	if tgt == nil {
		return fmt.Errorf("transport: unknown peer %q", to)
	}
	b := wire.Encode(m)
	ep.sent.Inc()
	ep.sentBytes.Add(uint64(len(b)))
	if _, ok := ep.net.nw.Ping(ep.name, to, len(b)); !ok {
		ep.dropped.Inc()
		return nil
	}
	tgt.deliver(ep.name, b)
	return nil
}

// deliver decodes and dispatches one arrived message. A frame the link
// carried to an endpoint that cannot take it — closed, undecodable, no
// handler — is lost at this endpoint and counts as Dropped here.
func (ep *SimEndpoint) deliver(from string, b []byte) {
	if ep.closed.Load() {
		ep.dropped.Inc()
		return
	}
	m, err := ep.decode.Decode(b)
	if err != nil {
		ep.dropped.Inc()
		return
	}
	h := ep.handler.Load()
	if h == nil {
		ep.dropped.Inc()
		return
	}
	ep.recv.Inc()
	ep.recvBytes.Add(uint64(len(b)))
	(*h)(from, m)
}

// Close detaches the endpoint: later Sends error, arrivals are
// dropped (and counted). The node stays in the simulated network (crash it there to
// model a dead machine).
func (ep *SimEndpoint) Close() error {
	ep.closed.Store(true)
	return nil
}
