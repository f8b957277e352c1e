// Package p2pm is a Go implementation of P2P Monitor (P2PM), the
// distributed monitoring system for peer-to-peer systems of Abiteboul &
// Marinoiu, "Distributed Monitoring of Peer to Peer Systems" (WIDM 2007 /
// HAL inria-00259054).
//
// P2PM monitors other P2P systems: declarative P2PML subscriptions are
// compiled into distributed algebraic plans over XML streams, whose
// operators — alerters detecting local events, stream processors
// (filter, restructure, union, join, duplicate removal), and publishers —
// are deployed across the peers and stitched together with channels.
// A multi-subscription Filter evaluates cheap root-attribute conditions
// first (preFilter + AES hash-tree) and shared-NFA tree patterns
// (YFilter) only for the subscriptions still alive, and a DHT-backed
// stream-definition database lets new subscriptions reuse streams that
// existing tasks already compute.
//
// The monitor tolerates the churn that defines the P2P systems it
// watches: the simulated substrate can crash, partition and lose
// messages (simnet fault injection); a SWIM-style gossip failure
// detector on the virtual clock declares silent peers dead; and a
// supervisor migrates a dead peer's operators onto live peers —
// preferring hosts that announced a replica of the affected stream —
// re-binding every consumer end-to-end while the DHT re-replicates the
// stream definitions the crashed node held. See docs/CHURN.md and the X2
// experiment.
//
// Quick start:
//
//	sys := p2pm.MustSystem(p2pm.DefaultConfig())
//	mgr := sys.MustAddPeer("monitor")
//	server := sys.MustAddPeer("meteo.com")
//	server.Endpoint().Register("GetTemperature", handler, latency)
//	task, err := mgr.Subscribe(`for $c in inCOM(<p>meteo.com</p>) ...`)
//	... drive traffic ...
//	task.Stop()
//	for _, item := range task.Results().Drain() { ... }
//
// A subscription goes through one chain on its way to deployment
// (Figure 3): compile, optimize and place, reuse existing streams, and
// re-place. sys.Explain(src, "monitor") returns those stages without
// deploying anything, and its last stage is the plan Subscribe would
// deploy; Explain below renders the chain without a system, so without
// the reuse stage. Neither shows the aggregation tree that deployment
// may still build under a wide windowed group.
//
// The heavy lifting lives in the internal packages (filter, algebra,
// p2pml, kadop, reuse, ...); this package re-exports the stable surface.
package p2pm

import (
	"p2pm/internal/p2pml"
	"p2pm/internal/peer"
	"p2pm/internal/stream"
)

// System is a P2PM deployment: the monitoring network, the monitored
// substrates and the stream-definition database.
type System = peer.System

// Peer is one P2PM peer (Subscription Manager plus hosted operators).
type Peer = peer.Peer

// Task is a deployed monitoring subscription.
type Task = peer.Task

// Config configures a System: functional sub-structs (DHT, Agg,
// Replay, Telemetry) validated by NewSystem and fixed from then on.
// Config.Seed does not seed the simulated network's coordinates. See
// docs/ADAPTIVE.md for what System.Tuning() still moves.
type Config = peer.Config

// DHTConfig groups the stream-definition ring knobs.
type DHTConfig = peer.DHTConfig

// AggConfig groups aggregation-tree construction and the adaptive
// re-chunking controller.
type AggConfig = peer.AggConfig

// ReplayConfig groups the lossless-failover layer.
type ReplayConfig = peer.ReplayConfig

// Tuning is the actuation surface of a running System: DHT replication
// and the aggregation-host quarantine.
type Tuning = peer.Tuning

// Subscription is a parsed P2PML statement.
type Subscription = p2pml.Subscription

// Item is one element of an XML stream.
type Item = stream.Item

// Ref names a stream as (StreamID, PeerID) — the paper's s@p notation.
type Ref = stream.Ref

// GossipOptions configures the SWIM-style gossip failure detector
// (probe interval and timeout, suspicion window, Lifeguard health
// scaling); see docs/DETECTOR.md.
type GossipOptions = peer.GossipOptions

// Supervisor couples the gossip failure detector with self-healing task
// migration; start one with System.StartGossipSupervisor (detection is
// decentralized and survives the loss of any individual peer) and drive
// it with System.Step.
type Supervisor = peer.Supervisor

// FailoverEvent records one repair action taken when a peer died.
type FailoverEvent = peer.FailoverEvent

// NewSystem builds an empty monitoring system from a validated
// configuration.
func NewSystem(cfg Config) (*System, error) { return peer.NewSystem(cfg) }

// MustSystem is NewSystem that panics on a bad configuration.
func MustSystem(cfg Config) *System { return peer.MustSystem(cfg) }

// DefaultConfig enables the full feature set (pushdown, reuse, SOAP
// envelopes in alerts) with 2-way DHT replication.
func DefaultConfig() Config { return peer.DefaultConfig() }

// Parse parses and validates a P2PML subscription without deploying it.
func Parse(src string) (*Subscription, error) { return p2pml.Parse(src) }

// Explain renders the Figure 3 processing chain (parse → compile →
// optimize) for a subscription, managed at the named peer, as
// peer.Explain runs it: no system, so no reuse stage. System.Explain
// adds the reuse stage against a running system's streams.
func Explain(src, subscriber string) (string, error) {
	ex, err := peer.Explain(src, subscriber)
	if err != nil {
		return "", err
	}
	return ex.String(), nil
}
