// SWIM-style gossip failure detection (Das et al. 2002, adapted to the
// virtual clock): every peer probes a random member each protocol
// period, escalates to indirect probes through k proxies before
// suspecting, and piggybacks alive/suspect/dead membership updates with
// incarnation numbers on the probe traffic. A suspected peer that is
// still alive learns of the suspicion from the gossip and refutes it by
// bumping its incarnation. The supervisor consumes a quorum-confirmed
// aggregate of the per-peer views, so no single peer's blindness can
// declare a death (or survive one undetected): detection keeps working
// when any individual peer crashes or is partitioned away.
//
// Detection traffic is O(1) per peer per period (one probe round trip
// plus at most k indirect relays, each carrying a bounded piggyback);
// nothing converges on one hotspot.
package peer

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"p2pm/internal/telemetry"
)

// The protocol constants nothing in the tree ever tuned (docs/DETECTOR.md
// "Tuning" says why each value is what it is).
const (
	// indirectProxies is k, the number of random proxies asked to probe a
	// target on the prober's behalf before it is suspected.
	indirectProxies = 2
	// deathQuorum is how many independent views must declare a member
	// dead before the aggregate (what the supervisor acts on) confirms the
	// death, clamped to the number of members able to vote. A quorum ≥ 2
	// is what makes one isolated peer's false positives harmless.
	deathQuorum = 2
	// probeBytes is the accounted wire size of one probe or ack without
	// piggyback, piggybackBytes that of one piggybacked membership update.
	probeBytes     = 48
	piggybackBytes = 24
	// maxPiggyback bounds how many updates ride on one message.
	maxPiggyback = 6
	// retransmitFactor is λ: each update is piggybacked on at most
	// λ·⌈log₂(n+1)⌉ outgoing messages per view, the epidemic
	// dissemination budget.
	retransmitFactor = 3
	// probeFanout is how many distinct members each view probes per
	// period: SWIM's classic one.
	probeFanout = 1
	// ProbeTimeout bounds the round-trip a probe (direct, or one indirect
	// relay path) may take before it counts as failed; links slower than
	// this look dead, the classic accuracy/latency trade-off.
	ProbeTimeout = 500 * time.Millisecond
)

// GossipOptions configures the gossip failure detector.
type GossipOptions struct {
	// Seed drives probe-target and proxy selection. The protocol is
	// deterministic on the virtual clock for a fixed seed: same seed,
	// same membership, same fault schedule ⇒ identical suspect/dead
	// timelines. Default 1.
	Seed int64
	// ProbeInterval is one protocol period: each member probes one
	// random other member per period. Default 1s.
	ProbeInterval time.Duration
	// Suspicion is how long a member may stay suspected in a view
	// without an alive refutation before that view declares it dead.
	// Default 3×ProbeInterval.
	Suspicion time.Duration
	// Adaptive enables Lifeguard-style local health awareness (Dadgar
	// et al. 2018): each view keeps a health score in [0, HealthMax],
	// raised when its own probes of live-believed members fail or when
	// it learns it is itself being suspected, lowered when a probe
	// succeeds within the base timeout while the view holds no open
	// suspicion. The view's probe timeout and suspicion window scale by
	// (1 + health), so a node whose own links are slow grows
	// conservative about declaring others dead — instead of flooding
	// the gossip with false suspicions — while a healthy node keeps the
	// base detection latency for true crashes. Default off.
	Adaptive bool
	// HealthMax caps the health score and so the timeout multiplier
	// (1 + HealthMax). Default 8.
	HealthMax int
}

func (o GossipOptions) withDefaults() GossipOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.Suspicion <= 0 {
		o.Suspicion = 3 * o.ProbeInterval
	}
	if o.HealthMax <= 0 {
		o.HealthMax = 8
	}
	return o
}

// gossipStatus is the SWIM member state in one view.
type gossipStatus uint8

const (
	gossipAlive gossipStatus = iota
	gossipSuspect
	gossipDead
)

func (s gossipStatus) String() string {
	switch s {
	case gossipAlive:
		return "alive"
	case gossipSuspect:
		return "suspect"
	default:
		return "dead"
	}
}

// memberInfo is one view's knowledge about one other member.
type memberInfo struct {
	status gossipStatus
	inc    uint64        // highest incarnation this view has seen
	since  time.Duration // virtual time the current status was entered
	own    bool          // this view raised the current suspicion itself
	spent  bool          // the one failed-confirmation window extension was used
}

// gossipUpdate is one piggybacked membership statement.
type gossipUpdate struct {
	peer   string
	status gossipStatus
	inc    uint64
	left   int // remaining transmissions (epidemic budget)
}

// gossipView is one peer's local membership view: its own incarnation,
// what it believes about every other member, and the updates it still
// owes the gossip stream.
type gossipView struct {
	self       string
	inc        uint64 // own incarnation, bumped to refute suspicion
	members    map[string]*memberInfo
	queue      []gossipUpdate // pending dissemination, round-robin
	nextProbe  time.Duration  // virtual time of the next protocol period
	health     int            // Lifeguard local health score (adaptive mode)
	fastStreak int            // consecutive prompt probes since the last bump (adaptive mode)
}

// GossipDetector runs the protocol for every member on the shared
// virtual clock: System.Step ticks it, one probe round per member per
// ProbeInterval, deterministically (sorted member order, seeded RNG).
// The supervisor sees only the quorum-confirmed aggregate.
type GossipDetector struct {
	sys  *System
	opts GossipOptions

	mu        sync.Mutex
	rng       *rand.Rand
	views     map[string]*gossipView
	order     []string        // sorted member names
	confirmed map[string]bool // aggregate: quorum-confirmed dead
	onDeath   []func(peer string, at time.Duration)
	onRecover []func(peer string, at time.Duration)

	// Protocol activity since the detector started: direct probes sent,
	// indirect relays, suspicions opened and deaths declared per view
	// (what ProtocolCounters reads and the System's registry exports as
	// gossip_*_total), and piggybacked updates for the traffic
	// experiments.
	probes, indirect, suspicions, deaths telemetry.Counter
	piggybacked                          uint64
}

// StartGossipDetector starts the gossip protocol over every currently
// registered peer. It is ticked by System.Step. A System runs one
// detector — every peer's view lives in it — so a second call panics.
func (s *System) StartGossipDetector(opts GossipOptions) *GossipDetector {
	g := &GossipDetector{
		sys:       s,
		opts:      opts.withDefaults(),
		views:     make(map[string]*gossipView),
		confirmed: make(map[string]bool),
	}
	g.rng = rand.New(rand.NewSource(g.opts.Seed))
	for _, p := range s.Peers() {
		g.addMember(p)
	}
	s.mu.Lock()
	if s.detector != nil {
		s.mu.Unlock()
		panic("peer: this System already runs a gossip detector")
	}
	s.detector = g
	s.mu.Unlock()
	s.exportDetector(g)
	return g
}

// joinPrecheck validates a join without changing any state: the seed
// must be a live gossip member the joiner can talk to. System.JoinPeer
// runs it before admitting the peer anywhere, so a rejected join never
// leaves half-registered membership behind. The partition check stands
// in for reachability: a rejoining (still-down) peer's node comes up
// between this check and the Join itself, but its partition group does
// not change.
func (g *GossipDetector) joinPrecheck(name, seed string) error {
	if name == seed {
		return fmt.Errorf("peer: %s cannot seed its own join", name)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.views[seed] == nil {
		return fmt.Errorf("peer: join seed %s is not a gossip member", seed)
	}
	if !g.sys.Net.Alive(seed) || g.sys.Net.Partitioned(name, seed) {
		return fmt.Errorf("peer: join seed %s is unreachable from %s", seed, name)
	}
	return nil
}

// Join runs the membership join protocol for one peer: it contacts the
// seed member (paying the network, so an unreachable seed fails the
// join), receives a bootstrap copy of the seed's membership view, and
// is disseminated to every other view via piggybacked gossip — no
// pre-registration anywhere. A dead member rejoining (a recovered or
// replaced crash victim) adopts an incarnation above every death rumor
// the seed has seen, so its alive statement outranks the stale
// declarations wherever they still circulate; any higher-incarnation
// rumor it meets later is refuted by the standard self-defense bump.
func (g *GossipDetector) Join(name, seed string) error {
	if err := g.joinPrecheck(name, seed); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	sv := g.views[seed]
	now := g.sys.Net.Clock().Now()
	v := g.views[name]
	if v == nil {
		v = &gossipView{
			self:      name,
			members:   make(map[string]*memberInfo),
			nextProbe: now + g.opts.ProbeInterval,
		}
		g.views[name] = v
		g.order = append(g.order, name)
		sort.Strings(g.order)
	} else {
		// Rejoin: the protocol loop restarts fresh — stale dissemination
		// debt from the previous life must not ride the new one.
		v.nextProbe = now + g.opts.ProbeInterval
		v.queue = nil
	}
	// The join contact and the bootstrap transfer are accounted like any
	// protocol message.
	g.sys.Net.CountTransfer(name, seed, probeBytes+maxPiggyback*piggybackBytes)
	// Outrank every rumor the seed holds about a previous life.
	if m := sv.members[name]; m != nil && m.inc >= v.inc {
		v.inc = m.inc + 1
	}
	// Bootstrap: the joiner starts from the seed's member list and
	// opinions (minus anything about itself).
	for other, m := range sv.members {
		if other == name || v.members[other] != nil {
			continue
		}
		v.members[other] = &memberInfo{status: m.status, inc: m.inc, since: now}
	}
	if v.members[seed] == nil {
		v.members[seed] = &memberInfo{status: gossipAlive, inc: sv.inc, since: now}
	}
	// Mutual introduction, then epidemic dissemination: both sides queue
	// the alive statement, every message leaving either view carries it,
	// and receivers that never heard of the joiner learn it from the
	// piggyback (applyUpdate's discovery path).
	if m := sv.members[name]; m != nil {
		m.status, m.inc, m.since = gossipAlive, v.inc, now
	} else {
		sv.members[name] = &memberInfo{status: gossipAlive, inc: v.inc, since: now}
	}
	alive := gossipUpdate{peer: name, status: gossipAlive, inc: v.inc}
	g.enqueue(sv, alive)
	g.enqueue(v, alive)
	return nil
}

// Leave processes a graceful departure announcement: every view that
// knows the member records it dead at a fresh incarnation immediately —
// no probe failure, no suspicion window, no refutation race (the leaver
// itself outranks its own alive statements) — and the declaration is
// queued for epidemic dissemination so views that were partitioned away
// learn it from the gossip. The aggregate is updated directly without
// firing a death event: a graceful departure is already handled
// (System.LeavePeer migrated the work), so the supervisor must not run
// crash repair on top. A later rejoin adopts an incarnation above the
// departure statement through the standard Join path.
func (g *GossipDetector) Leave(name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	v := g.views[name]
	if v == nil {
		return
	}
	v.inc++ // the departure statement outranks every alive rumor about this life
	v.queue = nil
	now := g.sys.Net.Clock().Now()
	for _, owner := range g.order {
		if owner == name {
			continue
		}
		ov := g.views[owner]
		if m := ov.members[name]; m != nil {
			m.status, m.inc, m.since = gossipDead, v.inc, now
			g.enqueue(ov, gossipUpdate{peer: name, status: gossipDead, inc: v.inc})
		}
	}
	g.confirmed[name] = true
}

// addMember pre-registers a start-time member: every view learns about
// it instantly and it gets a view of its own. Peers arriving at runtime
// go through Join, which disseminates the arrival over the gossip
// traffic instead.
func (g *GossipDetector) addMember(name string) {
	if _, ok := g.views[name]; ok {
		return
	}
	now := g.sys.Net.Clock().Now()
	v := &gossipView{
		self:      name,
		members:   make(map[string]*memberInfo),
		nextProbe: now + g.opts.ProbeInterval,
	}
	for _, other := range g.order {
		v.members[other] = &memberInfo{status: gossipAlive, since: now}
		g.views[other].members[name] = &memberInfo{status: gossipAlive, since: now}
	}
	g.views[name] = v
	g.order = append(g.order, name)
	sort.Strings(g.order)
}

// OnDeath registers a callback fired (outside the lock) when the
// aggregate confirms a member dead.
func (g *GossipDetector) OnDeath(f func(peer string, at time.Duration)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.onDeath = append(g.onDeath, f)
}

// OnRecover registers a callback fired when a confirmed-dead member is
// quorum-refuted alive again.
func (g *GossipDetector) OnRecover(f func(peer string, at time.Duration)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.onRecover = append(g.onRecover, f)
}

// Suspects returns the members the aggregate currently confirms dead,
// sorted — the quorum view the supervisor acts on.
func (g *GossipDetector) Suspects() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []string
	for p, dead := range g.confirmed {
		if dead {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// MembersOf reports the members one view currently knows about, sorted
// — the join-dissemination introspection (how far has the arrival
// spread?).
func (g *GossipDetector) MembersOf(owner string) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	v := g.views[owner]
	if v == nil {
		return nil
	}
	return sortedMembers(v)
}

// ViewOf reports one member's local opinion of another (diagnostics and
// tests): status name and incarnation.
func (g *GossipDetector) ViewOf(owner, about string) (string, uint64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	v := g.views[owner]
	if v == nil {
		return "", 0, false
	}
	m := v.members[about]
	if m == nil {
		return "", 0, false
	}
	return m.status.String(), m.inc, true
}

// ProtocolCounters returns (direct probes sent, indirect probe relays,
// piggybacked updates) so experiments can report the detection cost.
func (g *GossipDetector) ProtocolCounters() (probes, indirect, piggybacked uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.probes.Value(), g.indirect.Value(), g.piggybacked
}

// levels returns the worst Lifeguard health score and the number of
// open suspicions across all views — the detector's two level gauges.
func (g *GossipDetector) levels() (maxHealth, suspects int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, v := range g.views {
		maxHealth = max(maxHealth, v.health)
		for _, m := range v.members {
			if m.status == gossipSuspect {
				suspects++
			}
		}
	}
	return maxHealth, suspects
}

// gossipEvent is one aggregate state change to report.
type gossipEvent struct {
	peer  string
	at    time.Duration
	death bool
}

// Tick advances the protocol to the current virtual time: every member
// runs the probe rounds due since the last tick (in sorted member
// order, so the seeded RNG draws are reproducible), per-view suspicion
// timeouts fire, and the quorum aggregate is recomputed. Death and
// recovery callbacks fire after the state update, outside the lock.
func (g *GossipDetector) Tick() {
	now := g.sys.Net.Clock().Now()
	g.mu.Lock()
	// Run protocol periods round by round across members, not member by
	// member across rounds, so dissemination within a period reaches
	// every view before the next period starts (matching the real
	// concurrent execution).
	for {
		ran := false
		for _, name := range g.order {
			v := g.views[name]
			if v.nextProbe > now {
				continue
			}
			at := v.nextProbe
			v.nextProbe += g.opts.ProbeInterval
			ran = true
			// A crashed peer runs no protocol rounds; its view freezes
			// until it recovers (fail-stop, not byzantine).
			if !g.sys.Net.Alive(name) {
				continue
			}
			g.probeRound(v, at)
		}
		if !ran {
			break
		}
		// Suspicion timeouts run per period so a suspect declared dead
		// in one round is disseminated in the next.
		g.sweepSuspicion(now)
	}
	g.sweepSuspicion(now)
	events := g.aggregateLocked(now)
	deathFns := append([]func(string, time.Duration){}, g.onDeath...)
	recoverFns := append([]func(string, time.Duration){}, g.onRecover...)
	g.mu.Unlock()

	for _, e := range events {
		if e.death {
			for _, f := range deathFns {
				f(e.peer, e.at)
			}
		} else {
			for _, f := range recoverFns {
				f(e.peer, e.at)
			}
		}
	}
}

// probeRound is one SWIM protocol period for one member: probe a
// random subset of probeFanout members directly, escalate each failure
// through k random proxies, and suspect a target when every path to it
// fails.
func (g *GossipDetector) probeRound(v *gossipView, at time.Duration) {
	for _, target := range g.pickTargets(v) {
		if !g.probeOnce(v, target) {
			// Lifeguard: a fully failed probe of a member we believed
			// alive implicates our own node or links as much as the
			// target. Raise local health (widening our timeouts) before
			// suspecting. Probes of already-suspected or dead-believed
			// members don't count — re-probing a genuinely crashed peer
			// every period must not inflate our score and slow down
			// detection of the next real crash.
			if m := v.members[target]; m != nil && m.status == gossipAlive {
				g.healthBump(v)
			}
			g.suspect(v, target, at)
		}
	}
}

// probeOnce is one full probe cycle of one target: direct, then
// indirect escalation through k random live-believed proxies. Any
// successful path counts as hearing the target.
func (g *GossipDetector) probeOnce(v *gossipView, target string) bool {
	g.probes.Inc()
	if g.directProbe(v, target) {
		return true
	}
	for _, proxy := range g.pickProxies(v, target) {
		g.indirect.Inc()
		if g.relayProbe(v, proxy, target) {
			return true
		}
	}
	return false
}

// pickTargets selects this period's probe subset uniformly from the
// members this view has learned of — including dead-believed ones,
// which is how a recovered peer is re-discovered even without a rejoin.
// Membership is view-local: a peer probes only peers it knows, so a
// freshly joined member's probe surface grows as the join disseminates.
func (g *GossipDetector) pickTargets(v *gossipView) []string {
	// Every known member is also in the (sorted) global order, so this
	// yields the view's members sorted without a per-round sort.
	candidates := make([]string, 0, len(v.members))
	for _, name := range g.order {
		if v.members[name] != nil {
			candidates = append(candidates, name)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	g.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if len(candidates) > probeFanout {
		candidates = candidates[:probeFanout]
	}
	sort.Strings(candidates) // deterministic probe order within the round
	return candidates
}

// pickProxies selects up to k distinct proxies this view believes
// alive, not the target, not self.
func (g *GossipDetector) pickProxies(v *gossipView, target string) []string {
	var candidates []string
	for _, name := range g.order {
		if name == target || name == v.self {
			continue
		}
		if m := v.members[name]; m != nil && m.status == gossipAlive {
			candidates = append(candidates, name)
		}
	}
	g.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if len(candidates) > indirectProxies {
		candidates = candidates[:indirectProxies]
	}
	sort.Strings(candidates) // deterministic relay order
	return candidates
}

// sortedMembers returns a view's known members in sorted order (the
// deterministic iteration every protocol step uses).
func sortedMembers(v *gossipView) []string {
	names := make([]string, 0, len(v.members))
	for name := range v.members {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// directProbe sends probe + ack between two members, each leg carrying
// piggybacked updates. It succeeds when both legs survive the fault
// model and the round trip beats the timeout.
func (g *GossipDetector) directProbe(v *gossipView, target string) bool {
	tv := g.views[target]
	if tv == nil {
		return false
	}
	lat1, ok := g.message(v, tv)
	if !ok {
		return false
	}
	lat2, ok := g.message(tv, v)
	if !ok {
		return false
	}
	if lat1+lat2 > g.probeTimeoutFor(v) {
		return false
	}
	g.observeAlive(v, target, tv.inc)
	if lat1+lat2 <= ProbeTimeout {
		g.healthDecay(v)
	}
	return true
}

// relayProbe routes probe + ack through one proxy: four legs, each
// gossiping, all four within the shared timeout budget.
func (g *GossipDetector) relayProbe(v *gossipView, proxy, target string) bool {
	pv, tv := g.views[proxy], g.views[target]
	if pv == nil || tv == nil {
		return false
	}
	total := time.Duration(0)
	for _, leg := range [][2]*gossipView{{v, pv}, {pv, tv}, {tv, pv}, {pv, v}} {
		lat, ok := g.message(leg[0], leg[1])
		if !ok {
			return false
		}
		total += lat
	}
	if total > g.probeTimeoutFor(v) {
		return false
	}
	g.observeAlive(v, target, tv.inc)
	// The proxy heard the target too.
	g.observeAlive(pv, target, tv.inc)
	if total <= ProbeTimeout {
		g.healthDecay(v)
	}
	return true
}

// message ships one protocol message from → to under the fault model,
// carrying from's piggybacked updates into to's view. Every message
// also states the sender's current opinion OF the recipient — the
// first-hand channel through which a falsely suspected (or recovered)
// peer learns of the rumor and refutes it, even after the rumor's
// epidemic budget is spent. Returns the link latency and whether the
// message survived.
func (g *GossipDetector) message(from, to *gossipView) (time.Duration, bool) {
	updates := g.takePiggyback(from)
	bytes := probeBytes + len(updates)*piggybackBytes
	lat, ok := g.sys.Net.Ping(from.self, to.self, bytes)
	if !ok {
		return 0, false
	}
	g.piggybacked += uint64(len(updates))
	now := g.sys.Net.Clock().Now()
	for _, u := range updates {
		g.applyUpdate(to, u, now)
	}
	// A delivered message is first-hand evidence of its sender: a
	// recipient that never heard of the sender learns it here (a joiner
	// introducing itself by probing, after its queued join rumor's
	// epidemic budget was spent on a partitioned link). The statement
	// carries the sender's own incarnation; it does not outrank a
	// suspect/dead rumor at the same incarnation — refutation stays the
	// sender's job (the opinion-of-recipient statement below tells it).
	g.applyUpdate(to, gossipUpdate{peer: from.self, status: gossipAlive, inc: from.inc}, now)
	if m := from.members[to.self]; m != nil && m.status != gossipAlive {
		g.applyUpdate(to, gossipUpdate{peer: to.self, status: m.status, inc: m.inc}, now)
	}
	return lat, true
}

// takePiggyback dequeues up to MaxPiggyback updates, consuming one unit
// of each sent update's epidemic budget; still-budgeted entries requeue
// behind the ones that waited (round-robin fairness).
func (g *GossipDetector) takePiggyback(v *gossipView) []gossipUpdate {
	n := maxPiggyback
	if n > len(v.queue) {
		n = len(v.queue)
	}
	if n == 0 {
		return nil
	}
	out := make([]gossipUpdate, n)
	copy(out, v.queue[:n])
	keep := make([]gossipUpdate, 0, len(v.queue))
	keep = append(keep, v.queue[n:]...)
	for _, u := range v.queue[:n] {
		u.left--
		if u.left > 0 {
			keep = append(keep, u)
		}
	}
	v.queue = keep
	return out
}

// enqueue adds (or refreshes) an update in a view's dissemination
// queue with a fresh epidemic budget.
func (g *GossipDetector) enqueue(v *gossipView, u gossipUpdate) {
	u.left = g.budget()
	for i := range v.queue {
		if v.queue[i].peer == u.peer {
			v.queue[i] = u
			return
		}
	}
	v.queue = append(v.queue, u)
}

// budget is λ·⌈log₂(n+1)⌉, the SWIM retransmission allowance.
func (g *GossipDetector) budget() int {
	n := len(g.order)
	if n < 1 {
		n = 1
	}
	return retransmitFactor * int(math.Ceil(math.Log2(float64(n+1))))
}

// rank orders statuses at equal incarnation: dead > suspect > alive
// (SWIM's precedence — a confirm overrides, a suspicion overrides an
// alive of the same incarnation, an alive refutes only with a higher
// incarnation).
func rank(s gossipStatus) int { return int(s) }

// applyUpdate merges one gossiped statement into a view under the SWIM
// precedence rules, re-gossiping anything that changed the view.
func (g *GossipDetector) applyUpdate(v *gossipView, u gossipUpdate, now time.Duration) {
	if u.peer == v.self {
		// Refutation: someone claims we are suspect or dead. Bump our
		// incarnation above the claim and gossip the alive statement —
		// it outranks the rumor everywhere it lands. Being suspected is
		// also first-hand evidence that we look slow from outside —
		// Lifeguard raises local health on it, widening our own timeouts
		// so a degraded node stops suspecting everyone else in turn.
		if u.status != gossipAlive && u.inc >= v.inc {
			v.inc = u.inc + 1
			g.enqueue(v, gossipUpdate{peer: v.self, status: gossipAlive, inc: v.inc})
			g.healthBump(v)
		}
		return
	}
	m := v.members[u.peer]
	if m == nil {
		// Discovery: a member this view never heard of — the piggybacked
		// join dissemination path. Learn it at the gossiped state and
		// keep the rumor spreading.
		v.members[u.peer] = &memberInfo{status: u.status, inc: u.inc, since: now}
		g.enqueue(v, gossipUpdate{peer: u.peer, status: u.status, inc: u.inc})
		return
	}
	if u.inc < m.inc || (u.inc == m.inc && rank(u.status) <= rank(m.status)) {
		return
	}
	if m.status != u.status {
		m.since = now
	}
	// Lifeguard: a refuted own suspicion is first-hand proof this view
	// raised a false alarm — raise local health so the next encounter
	// with the same degraded member starts from a wider window instead
	// of repeating the mistake at base latency.
	if m.own && m.status == gossipSuspect && u.status == gossipAlive {
		g.healthBump(v)
	}
	m.status, m.inc, m.own, m.spent = u.status, u.inc, false, false
	g.enqueue(v, gossipUpdate{peer: u.peer, status: u.status, inc: u.inc})
}

// observeAlive records a successful direct observation of target (an
// acked probe) at the target's current self-incarnation. The probe
// itself told the target about any rumor this view held (the
// opinion-of-recipient statement in message), so by the time the ack
// returns the target's incarnation outranks the rumor and the standard
// merge applies it.
func (g *GossipDetector) observeAlive(v *gossipView, target string, inc uint64) {
	g.applyUpdate(v, gossipUpdate{peer: target, status: gossipAlive, inc: inc}, g.sys.Net.Clock().Now())
}

// suspect marks the target suspected in v and gossips the suspicion.
func (g *GossipDetector) suspect(v *gossipView, target string, at time.Duration) {
	m := v.members[target]
	if m == nil || m.status != gossipAlive {
		return // already suspected or declared dead
	}
	m.status = gossipSuspect
	m.since = at
	m.own = true
	m.spent = false
	g.suspicions.Inc()
	g.enqueue(v, gossipUpdate{peer: target, status: gossipSuspect, inc: m.inc})
}

// probeTimeoutFor is the probe timeout one view applies: the base
// timeout scaled by (1 + health) in adaptive mode.
func (g *GossipDetector) probeTimeoutFor(v *gossipView) time.Duration {
	if !g.opts.Adaptive || v.health <= 0 {
		return ProbeTimeout
	}
	return ProbeTimeout * time.Duration(1+v.health)
}

// suspicionFor is the refutation window one view grants its suspects:
// the base window scaled by (1 + health) in adaptive mode. The sweep
// reads it fresh every period, so a health bump extends windows for
// suspicions already open.
func (g *GossipDetector) suspicionFor(v *gossipView) time.Duration {
	if !g.opts.Adaptive || v.health <= 0 {
		return g.opts.Suspicion
	}
	return g.opts.Suspicion * time.Duration(1+v.health)
}

// healthDecayStreak is the floor on how many consecutive
// promptly-answered probes a view must accumulate before its health
// score relaxes by one; decayStreakFor raises it to the view's member
// count so a full probe rotation must pass clean. Raising is instant,
// relaxing is slow (the Lifeguard asymmetry): a view that still fails
// on one member per rotation — a degraded peer somewhere in its random
// probe cycle — never completes the streak and keeps its widened
// timeouts, while a genuinely recovered view drains its score within a
// few rotations. Without the membership scaling, large memberships
// defeat the ratchet: a view meets the slow peer only every ~n rounds,
// drains its whole score on the fast peers in between, and every new
// suspicion restarts from the narrowest window.
const healthDecayStreak = 4

// decayStreakFor is the prompt-success streak one view must complete
// before healthDecay relaxes its score: one full rotation of its
// membership, floored at healthDecayStreak.
func decayStreakFor(v *gossipView) int {
	if n := len(v.members); n > healthDecayStreak {
		return n
	}
	return healthDecayStreak
}

// healthBump raises a view's local health score (saturating at
// HealthMax) and resets its success streak. No-op outside adaptive mode.
func (g *GossipDetector) healthBump(v *gossipView) {
	if !g.opts.Adaptive {
		return
	}
	v.fastStreak = 0
	if v.health < g.opts.HealthMax {
		v.health++
	}
}

// healthDecay counts a promptly answered probe toward the relax streak
// and lowers the health score when the streak completes — but only
// while the view holds no open suspicion. Decaying mid-suspicion would
// shrink the suspect's refutation window from under it and re-introduce
// the oscillating false kill the score exists to prevent; health thaws
// only once the slate is clean.
func (g *GossipDetector) healthDecay(v *gossipView) {
	if !g.opts.Adaptive || v.health == 0 || g.holdsSuspect(v) {
		return
	}
	v.fastStreak++
	if v.fastStreak >= decayStreakFor(v) {
		v.fastStreak = 0
		v.health--
	}
}

// holdsSuspect reports whether a view currently suspects anyone.
func (g *GossipDetector) holdsSuspect(v *gossipView) bool {
	for _, m := range v.members {
		if m.status == gossipSuspect {
			return true
		}
	}
	return false
}

// HealthOf reports a member's current Lifeguard health score (0 when
// unknown or adaptive mode is off) — diagnostics and tests.
func (g *GossipDetector) HealthOf(peer string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if v := g.views[peer]; v != nil {
		return v.health
	}
	return 0
}

// sweepSuspicion promotes suspects whose refutation window expired to
// dead, per view, and gossips the declaration.
func (g *GossipDetector) sweepSuspicion(now time.Duration) {
	for _, name := range g.order {
		v := g.views[name]
		if !g.sys.Net.Alive(name) {
			continue
		}
		for _, other := range g.order {
			m := v.members[other]
			if m == nil || m.status != gossipSuspect {
				continue
			}
			// A spent extension re-armed the clock only to reach the next
			// confirmation round: it waits the base window, not the scaled
			// one, so a genuine crash pays one short grace period — not a
			// second full (1+health)-scaled suspicion — before declaration.
			window := g.suspicionFor(v)
			if m.spent {
				window = g.opts.Suspicion
			}
			if now-m.since <= window {
				continue
			}
			// Lifeguard last-chance confirmation: before declaring the
			// death, an adaptive view probes the suspect again. A
			// genuinely crashed peer fails instantly — true-crash latency
			// is unchanged — but a delayed-but-alive peer gets a final
			// direct channel to refute (the probe exchange carries the
			// suspicion to it and its incarnation bump back), closing the
			// race where every gossiped refutation was lost to the same
			// degraded links that raised the suspicion. Like the timeouts,
			// the number of attempts scales with the health score: a view
			// that already knows the network is degraded spends more paths
			// before trusting a silence.
			if g.opts.Adaptive {
				refuted := false
				for i := 0; i <= v.health && !refuted; i++ {
					refuted = g.probeOnce(v, other)
				}
				// A probe can miss its timeout and still deliver: the ack
				// already carried the target's incarnation bump into this
				// view. Declaring death now would stamp the rumor with the
				// refuted-past incarnation's successor and outrank the
				// refutation everywhere — so any evidence of life stands.
				if refuted || m.status != gossipSuspect {
					continue
				}
				// First failed confirmation: escalate instead of declaring.
				// A view that adopted this suspicion second-hand may still
				// sit at health 0 with base-latency expectations; the failed
				// confirmation is its own first-hand evidence of degradation,
				// so raise health and re-arm the clock once (for the base
				// window — see above). A genuinely crashed peer just fails
				// the re-probe one base window later, while a delayed-but-
				// alive peer gets a second confirmation round at escalated
				// timeouts, where a delivered probe now beats the timeout.
				if !m.spent {
					m.spent = true
					m.since = now
					g.healthBump(v)
					continue
				}
			}
			m.status = gossipDead
			m.since = now
			m.own = false
			g.deaths.Inc()
			g.enqueue(v, gossipUpdate{peer: other, status: gossipDead, inc: m.inc})
		}
	}
}

// aggregateLocked recomputes the quorum-confirmed membership view and
// returns the death/recovery transitions to report. Views owned by
// confirmed-dead members do not vote — a partitioned or crashed peer's
// opinions must not poison the aggregate — and neither do views that
// have not yet learned of a member (a join mid-dissemination must not
// count silent ignorance as a death vote or a voter).
func (g *GossipDetector) aggregateLocked(now time.Duration) []gossipEvent {
	var events []gossipEvent
	for _, name := range g.order {
		votes := 0
		voters := 0
		for _, owner := range g.order {
			if owner == name || g.confirmed[owner] {
				continue
			}
			m := g.views[owner].members[name]
			if m == nil {
				continue
			}
			voters++
			if m.status == gossipDead {
				votes++
			}
		}
		q := deathQuorum
		if q > voters {
			q = voters
		}
		if q < 1 {
			q = 1
		}
		dead := votes >= q
		switch {
		case dead && !g.confirmed[name]:
			g.confirmed[name] = true
			events = append(events, gossipEvent{peer: name, at: now, death: true})
		case !dead && g.confirmed[name]:
			g.confirmed[name] = false
			events = append(events, gossipEvent{peer: name, at: now, death: false})
		}
	}
	return events
}
