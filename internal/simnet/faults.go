// Fault injection: the churn model. A node can crash (fail-stop: every
// message to or from it is dropped) and recover; the network can be split
// into partition groups and healed; individual links can lose a fraction
// of their messages or add delay on top of the latency model. All of it
// composes with the virtual clock and the per-link traffic accounting, so
// experiments can measure the cost of monitoring under churn.

package simnet

import (
	"fmt"
	"time"
)

// Crash marks a node dead. Messages to and from it are dropped (counted
// in LinkStats.Dropped) until Recover. Crashing an unknown node is an
// error; crashing a dead node is a no-op.
func (nw *Network) Crash(name string) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	n := nw.nodes[name]
	if n == nil {
		return fmt.Errorf("simnet: cannot crash unknown node %q", name)
	}
	n.down = true
	return nil
}

// Recover brings a crashed node back.
func (nw *Network) Recover(name string) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	n := nw.nodes[name]
	if n == nil {
		return fmt.Errorf("simnet: cannot recover unknown node %q", name)
	}
	n.down = false
	return nil
}

// Alive reports whether a node is up. Names that were never registered
// are treated as alive, matching the latency model's tolerance for
// external endpoints.
func (nw *Network) Alive(name string) bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	n := nw.nodes[name]
	return n == nil || !n.down
}

// Partition splits the network: nodes in a and nodes in b can no longer
// exchange messages. Nodes in neither group keep full connectivity.
// Partition replaces any previous partition; unknown names are ignored.
func (nw *Network) Partition(a, b []string) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	for _, n := range nw.nodes {
		n.part = 0
	}
	for _, name := range a {
		if n := nw.nodes[name]; n != nil {
			n.part = 1
		}
	}
	for _, name := range b {
		if n := nw.nodes[name]; n != nil {
			n.part = 2
		}
	}
}

// Heal removes the partition.
func (nw *Network) Heal() {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	for _, n := range nw.nodes {
		n.part = 0
	}
}

// Partitioned reports whether a and b sit in different partition groups.
func (nw *Network) Partitioned(a, b string) bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	na, nb := nw.nodes[a], nw.nodes[b]
	if na == nil || nb == nil {
		return false
	}
	return na.part != 0 && nb.part != 0 && na.part != nb.part
}

// Reachable reports whether a message from a can currently reach b: both
// endpoints alive and not separated by a partition. Local delivery always
// succeeds.
func (nw *Network) Reachable(a, b string) bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.reachableLocked(a, b)
}

func (nw *Network) reachableLocked(a, b string) bool {
	if a == b {
		return true
	}
	na, nb := nw.nodes[a], nw.nodes[b]
	if na != nil && na.down {
		return false
	}
	if nb != nil && nb.down {
		return false
	}
	return na == nil || nb == nil || na.part == 0 || nb.part == 0 || na.part == nb.part
}

// SetDrop injects message loss on the directed link a→b: each message is
// dropped with probability p, decided by loseLocked. Setting p starts
// the link's counts afresh; p <= 0 clears the injection and the counts.
func (nw *Network) SetDrop(a, b string, p float64) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if p <= 0 {
		delete(nw.lossy, [2]string{a, b})
		return
	}
	nw.lossy[[2]string{a, b}] = &lossyLink{p: p, sent: make(map[string]uint64)}
}

// SetExtraDelay injects additional delay on the directed link a→b, added
// on top of the latency model (a slow-but-alive link). d <= 0 clears it.
func (nw *Network) SetExtraDelay(a, b string, d time.Duration) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if d <= 0 {
		delete(nw.linkDelay, [2]string{a, b})
		return
	}
	nw.linkDelay[[2]string{a, b}] = d
}

// Ping ships an opaque control-plane payload of the given wire size — a
// gossip probe, a checkpoint, a partial-aggregation state, any message
// the simnet transport backend (internal/transport) sends — across
// from→to and returns its one-way latency. ok=false when the fault model
// loses it: crashed endpoint, partition, or injected drop. Delivered and
// lost payloads land in the same per-link accounting as stream items.
func (nw *Network) Ping(from, to string, bytes int) (time.Duration, bool) {
	if from == to {
		return 0, true
	}
	return nw.transfer(from, to, pingClass, bytes)
}

// pingClass is the loss class of every Ping. A Deliver's class is its
// item's Source, which a channel never leaves empty.
const pingClass = ""

// lossyLink is one link's injected loss: the probability and, per
// class, how many messages have reached the decision.
type lossyLink struct {
	p    float64
	sent map[string]uint64
}

// loseLocked is the loss policy: whether the next message of class on
// from→to is lost to injected drop probability. The decision is
// draw(seed, from, to, class, n) < p, with n the class's count on the
// link, this message included, so it reads no shared stream and no
// other link's or class's traffic. A link with no drop set never draws.
func (nw *Network) loseLocked(from, to, class string) bool {
	l := nw.lossy[[2]string{from, to}]
	if l == nil {
		return false
	}
	l.sent[class]++
	return draw(nw.opts.Seed, from, to, class, l.sent[class]) < l.p
}

// draw is a number in [0, 1) that is a pure function of its arguments:
// FNV-1a over the names, each closed by 0xff (a byte no UTF-8 text
// holds), then the count folded in and mixed by splitmix64's finalizer.
func draw(seed int64, from, to, class string, n uint64) float64 {
	h := uint64(seed)
	for _, s := range [...]string{from, to, class} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211
	}
	h = (h ^ n) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return float64((h^h>>31)>>11) / (1 << 53)
}
