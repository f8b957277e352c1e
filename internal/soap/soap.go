// Package soap simulates the SOAP-RPC Web services layer that P2PM's WS
// alerters monitor. The paper implements alerters as Axis handlers that
// intercept inbound/outbound calls and annotate the SOAP envelope with
// call identifiers, caller/callee identities and timestamps; here an
// Endpoint plays the role of the Axis stack on one peer, and hooks play
// the role of handlers. Hook lists only grow, so Invoke — once per
// monitored call — reads the slice header under the read lock and never
// copies the list; what comes and goes with subscriptions is the attach
// list of the alerters.Tap behind a hook, not the hook.
package soap

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"p2pm/internal/simnet"
	"p2pm/internal/xmltree"
)

// Exchange is one completed call/response pair as both sides observe it —
// the same "call" is an out-call for the caller and an in-call for the
// callee (Section 2).
type Exchange struct {
	CallID       string
	Method       string
	Caller       string // caller peer (DNS-style name)
	Callee       string // callee peer
	CallTime     time.Duration
	ResponseTime time.Duration
	Params       *xmltree.Node
	Result       *xmltree.Node
	Fault        string
}

// Duration returns the observed call duration.
func (x Exchange) Duration() time.Duration { return x.ResponseTime - x.CallTime }

// Envelope renders the exchange as a SOAP-style envelope tree, the payload
// alerters embed in alerts, carved from b; EnvelopeSize is what it takes
// there. response labels the result's element, x.Method+"Response": the
// caller renders it, so that it can share an allocation with the other
// strings of what it builds.
func (x Exchange) Envelope(b *xmltree.Builder, response string) *xmltree.Node {
	// Reservations are exact: EnvelopeSize leaves no slack to over-reserve from.
	kids := 1
	if x.Result != nil {
		kids++
	}
	if x.Fault != "" {
		kids++
	}
	body := b.Elem("Body", 0, kids)
	if x.Params != nil {
		body.Append(b.Elem(x.Method, 0, 1).Append(b.Clone(x.Params)))
	} else {
		body.Append(b.Elem(x.Method, 0, 0))
	}
	if x.Result != nil {
		body.Append(b.Elem(response, 0, 1).Append(b.Clone(x.Result)))
	}
	if x.Fault != "" {
		body.Append(b.Elem("Fault", 0, 1).Append(b.Text(x.Fault)))
	}
	env := b.Elem("Envelope", 1, 1).Append(body)
	return env.SetAttr("xmlns", "http://schemas.xmlsoap.org/soap/envelope/")
}

// EnvelopeSize returns the numbers of nodes and attributes of Envelope's
// tree.
func (x Exchange) EnvelopeSize() (nodes, attrs int) {
	pn, pa := x.Params.Count()
	rn, ra := x.Result.Count()
	nodes, attrs = 3+pn+rn, 1+pa+ra // Envelope and its xmlns, Body, the call
	if x.Result != nil {
		nodes++
	}
	if x.Fault != "" {
		nodes += 2
	}
	return nodes, attrs
}

// Handler implements a service method.
type Handler func(params *xmltree.Node) (*xmltree.Node, error)

// Hook observes an exchange (an Axis handler in the paper).
type Hook func(Exchange)

// Fabric connects the endpoints of all peers so calls can be routed by
// peer name; it also owns the global call-ID sequence.
type Fabric struct {
	nw     *simnet.Network
	mu     sync.RWMutex
	eps    map[string]*Endpoint
	callID atomic.Uint64
}

// NewFabric builds an empty service fabric over a simulated network.
func NewFabric(nw *simnet.Network) *Fabric {
	return &Fabric{nw: nw, eps: make(map[string]*Endpoint)}
}

// Endpoint returns (creating if needed) the SOAP endpoint of a peer.
func (f *Fabric) Endpoint(peer string) *Endpoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	ep := f.eps[peer]
	if ep == nil {
		f.nw.AddNode(peer)
		ep = &Endpoint{fabric: f, peer: peer, services: make(map[string]*service)}
		f.eps[peer] = ep
	}
	return ep
}

func (f *Fabric) lookup(peer string) *Endpoint {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.eps[peer]
}

func (f *Fabric) nextCallID() string {
	var buf [len("call-") + 20]byte // a uint64 has at most 20 digits
	return string(strconv.AppendUint(append(buf[:0], "call-"...), f.callID.Add(1), 10))
}

// Endpoint is one peer's SOAP stack: it hosts services and issues calls.
type Endpoint struct {
	fabric *Fabric
	peer   string

	mu       sync.RWMutex
	services map[string]*service
	// Append-only: Invoke iterates the slice header it read after
	// releasing the lock, and an append beside it writes only beyond
	// that header's length.
	inHooks  []Hook
	outHooks []Hook
}

type service struct {
	handler Handler
	latency func() time.Duration
}

// Peer returns the owning peer name.
func (e *Endpoint) Peer() string { return e.peer }

// Register installs a service method. latency, if non-nil, yields the
// simulated per-call processing time (it may be randomized to model slow
// answers).
func (e *Endpoint) Register(method string, h Handler, latency func() time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.services[method] = &service{handler: h, latency: latency}
}

// OnInbound adds an inbound-call hook (the inCOM alerter attaches here).
func (e *Endpoint) OnInbound(h Hook) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.inHooks = append(e.inHooks, h)
}

// OnOutbound adds an outbound-call hook (the outCOM alerter).
func (e *Endpoint) OnOutbound(h Hook) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.outHooks = append(e.outHooks, h)
}

// Invoke performs a synchronous SOAP-RPC call to method on the callee
// peer. The virtual response time accounts for two network traversals
// plus the service's processing latency. Both sides' hooks observe the
// completed exchange with the same call identifier.
func (e *Endpoint) Invoke(callee, method string, params *xmltree.Node) (*xmltree.Node, error) {
	f := e.fabric
	target := f.lookup(callee)
	callTime := f.nw.Clock().Now()
	x := Exchange{
		CallID:   f.nextCallID(),
		Method:   method,
		Caller:   e.peer,
		Callee:   callee,
		CallTime: callTime,
		Params:   params,
	}
	rtt := f.nw.Latency(e.peer, callee) + f.nw.Latency(callee, e.peer)
	if params != nil {
		f.nw.CountTransfer(e.peer, callee, params.SerializedSize())
	} else {
		f.nw.CountTransfer(e.peer, callee, len(method))
	}

	var err error
	if target == nil {
		x.Fault = fmt.Sprintf("no endpoint for peer %q", callee)
		err = fmt.Errorf("soap: %s", x.Fault)
		x.ResponseTime = callTime + rtt
	} else {
		target.mu.RLock()
		svc := target.services[method]
		target.mu.RUnlock()
		if svc == nil {
			x.Fault = fmt.Sprintf("no such method %q at %s", method, callee)
			err = fmt.Errorf("soap: %s", x.Fault)
			x.ResponseTime = callTime + rtt
		} else {
			var proc time.Duration
			if svc.latency != nil {
				proc = svc.latency()
			}
			res, herr := svc.handler(params)
			if herr != nil {
				x.Fault = herr.Error()
				err = herr
			}
			x.Result = res
			x.ResponseTime = callTime + rtt + proc
			if res != nil {
				f.nw.CountTransfer(callee, e.peer, res.SerializedSize())
			}
		}
	}

	// Fire hooks: the callee sees an in-call, the caller an out-call.
	if target != nil {
		target.mu.RLock()
		hooks := target.inHooks
		target.mu.RUnlock()
		for _, h := range hooks {
			h(x)
		}
	}
	e.mu.RLock()
	hooks := e.outHooks
	e.mu.RUnlock()
	for _, h := range hooks {
		h(x)
	}
	return x.Result, err
}
