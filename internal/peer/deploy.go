package peer

import (
	"fmt"
	"time"

	"p2pm/internal/aggtree"
	"p2pm/internal/alerters"
	"p2pm/internal/algebra"
	"p2pm/internal/monoid"
	"p2pm/internal/operators"
	"p2pm/internal/p2pml"
	"p2pm/internal/reuse"
	"p2pm/internal/stream"
	"p2pm/internal/telemetry"
	"p2pm/internal/xmltree"
)

// deploy turns an optimized (and possibly reuse-rewritten) plan into
// running operators. Every operator publishes its output as a channel at
// its peer — exactly the paper's deployment, where even intermediate
// results (the X, Y channels of Figure 4) are published so other tasks
// can reuse them — and consumes its inputs by subscribing to its
// children's channels, across the simulated network when peers differ.
func (p *Peer) deploy(task *Task) error {
	plan := task.Plan
	// Resolve the "local" placeholder (delegated local tasks, Section
	// 3.4) to the managing peer.
	plan.Walk(func(n *algebra.Node) {
		if n.Peer == "local" {
			n.Peer = p.name
		}
		if n.Op == algebra.OpAlerter && n.Alerter.Peer == "local" {
			n.Alerter.Peer = p.name
		}
	})
	// Tree-vs-flat aggregation decision: with AggDegree set, wide
	// windowed aggregations decompose into DHT-routed partial/merge
	// trees before a single channel is allocated. The task's plan IS the
	// rewritten plan — failover and checkpointing see the tree.
	if deg := p.sys.cfg.Agg.Degree; deg > 1 {
		plan, _ = aggtree.Rewrite(plan, task.ID, aggtree.Config{Degree: deg, Place: p.sys.newAggPlacer()})
		task.Plan = plan
	}

	refs, err := reuse.PublishPlan(p.sys.DB, plan, p.sys.nextStreamID)
	if err != nil {
		return err
	}
	task.refs = refs
	task.origRefs = make(map[*algebra.Node]stream.Ref, len(refs))
	for n, ref := range refs {
		task.origRefs[n] = ref
	}
	task.procs = make(map[*algebra.Node]*procInstance)

	var build func(n *algebra.Node) (*stream.Channel, error)
	build = func(n *algebra.Node) (*stream.Channel, error) {
		switch n.Op {
		case algebra.OpChannelIn:
			ch, ok := p.sys.Channel(n.Channel)
			if !ok {
				return nil, fmt.Errorf("peer: channel %s not found (reuse of a stopped task?)", n.Channel)
			}
			return ch, nil
		case algebra.OpPublish:
			child, err := build(n.Inputs[0])
			if err != nil {
				return nil, err
			}
			return p.deployPublisher(task, n, p.subscribeInput(task, n, n.Inputs[0], child))
		}
		out := p.sys.allocChannel(task, n.Peer, refs[n].StreamID)

		switch n.Op {
		case algebra.OpAlerter:
			if err := p.deployAlerter(task, n, out); err != nil {
				return nil, err
			}
		case algebra.OpDynAlerter:
			driver, err := build(n.Inputs[0])
			if err != nil {
				return nil, err
			}
			p.runDynAlerter(task, n, p.subscribeInput(task, n, n.Inputs[0], driver), out)
		default:
			queues := make([]*stream.Queue, len(n.Inputs))
			for i, in := range n.Inputs {
				child, err := build(in)
				if err != nil {
					return nil, err
				}
				queues[i] = p.subscribeInput(task, n, in, child)
			}
			proc, err := p.makeProc(n)
			if err != nil {
				return nil, err
			}
			p.runProc(task, n, proc, queues, out)
		}
		return out, nil
	}
	resultCh, err := build(plan)
	if err != nil {
		return err
	}
	task.resultCh = resultCh
	// The manager reads the task's results through an edge of its own,
	// always cursor-gated, so a publisher migration or a change of manager
	// re-binds it without the reader of Results() noticing.
	e := p.sys.newEdge(task, p.name)
	e.local = true
	e.into(stream.NewQueue(), 0, true)
	e.attach(resultCh, 0)
	return nil
}

// subscribeInput wires one plan-internal input edge: the consumer
// operator reads the returned queue, fed from ch through a cursor gate
// when the replay layer is on, and the edge records its place in the plan
// (consumer operator, producing node) so failure handling can re-bind it
// to a replacement producer.
func (p *Peer) subscribeInput(task *Task, consumer, child *algebra.Node, ch *stream.Channel) *stream.Queue {
	e := p.sys.newEdge(task, consumer.Peer)
	e.consumer, e.child = consumer, child
	e.into(stream.NewQueue(), 0, p.sys.replayOn())
	e.attach(ch, 0)
	return e.queue
}

// makeProc compiles a processor node's spec into a runnable operator.
func (p *Peer) makeProc(n *algebra.Node) (operators.Proc, error) {
	switch n.Op {
	case algebra.OpSelect:
		return &operators.Select{Pred: algebra.SelectPred(n.Inputs[0].Schema, n.Select)}, nil
	case algebra.OpUnion:
		return &operators.Union{}, nil
	case algebra.OpJoin:
		lk, rk := algebra.JoinKeys(n.Inputs[0].Schema, n.Inputs[1].Schema, n.Join)
		return &operators.Join{
			LeftKey:  lk,
			RightKey: rk,
			Residual: algebra.JoinResidual(n.Inputs[0].Schema, n.Inputs[1].Schema, n.Join),
			Combine:  algebra.JoinCombine(n.Inputs[0].Schema, n.Inputs[1].Schema),
			UseIndex: true,
		}, nil
	case algebra.OpDistinct:
		return &operators.Distinct{}, nil
	case algebra.OpGroup:
		window, err := groupWindow(n)
		if err != nil {
			return nil, err
		}
		agg, err := groupAgg(n)
		if err != nil {
			return nil, err
		}
		return &operators.Group{
			Key:    attrGetter(n.Group.KeyAttr),
			Value:  valueGetter(n.Group),
			Window: window,
			Agg:    agg,
		}, nil
	case algebra.OpPartialAgg:
		window, err := groupWindow(n)
		if err != nil {
			return nil, err
		}
		agg, err := groupAgg(n)
		if err != nil {
			return nil, err
		}
		return &operators.PartialAgg{
			Key:    attrGetter(n.Group.KeyAttr),
			Value:  valueGetter(n.Group),
			Window: window,
			Agg:    agg,
		}, nil
	case algebra.OpMergeAgg:
		// Window indices ride inside the partial states, so the merge
		// needs only its role — interior (forward merged partials) or
		// Final root (emit the flat operator's records) — plus the
		// monoid that decodes and merges those states.
		agg, err := groupAgg(n)
		if err != nil {
			return nil, err
		}
		return &operators.MergeAgg{Final: n.Group.Final, Agg: agg}, nil
	case algebra.OpRestruct:
		return &operators.Restructure{Apply: algebra.RestructApply(n.Inputs[0].Schema, n.Restruct)}, nil
	}
	return nil, fmt.Errorf("peer: cannot deploy operator %v", n.Op)
}

func attrGetter(attr string) func(*xmltree.Node) string {
	return func(t *xmltree.Node) string { return t.AttrOr(attr, "") }
}

// valueGetter extracts the aggregated value attribute; nil for count,
// which consumes no value.
func valueGetter(g *algebra.GroupSpec) func(*xmltree.Node) string {
	if g.ValueAttr == "" {
		return nil
	}
	return attrGetter(g.ValueAttr)
}

// groupAgg resolves a Group-family node's aggregate monoid (nil for the
// default count, keeping the operator's zero-value fast path).
func groupAgg(n *algebra.Node) (monoid.Monoid, error) {
	if n.Group.Fn == "" || n.Group.Fn == "count" {
		return nil, nil
	}
	m, ok := monoid.Lookup(n.Group.Fn)
	if !ok {
		return nil, fmt.Errorf("peer: unknown aggregate function %q", n.Group.Fn)
	}
	return m, nil
}

// groupWindow parses a Group-family node's window duration.
func groupWindow(n *algebra.Node) (time.Duration, error) {
	if n.Group.Window == "" {
		return 0, nil
	}
	window, err := time.ParseDuration(n.Group.Window)
	if err != nil {
		return 0, fmt.Errorf("peer: bad group window %q: %w", n.Group.Window, err)
	}
	return window, nil
}

// deployAlerter instantiates the event source a plan's alerter node
// describes and wires it to publish into out.
func (p *Peer) deployAlerter(task *Task, n *algebra.Node, out *stream.Channel) error {
	emit := func(it stream.Item) {
		if it.EOS() {
			out.Close()
			return
		}
		out.Publish(it)
	}
	clock := p.sys.clock.Now
	name := n.Alerter.Func + "@" + n.Alerter.Peer
	switch n.Alerter.Kind {
	case "ws-in", "ws-out":
		dir := alerters.Inbound
		if n.Alerter.Kind == "ws-out" {
			dir = alerters.Outbound
		}
		detach := p.sys.tap(n.Alerter.Peer, dir).Attach(name, includeEnvelopes, out.Publish)
		task.closers = append(task.closers, func() {
			detach()
			out.Close()
		})
	case "membership":
		al := alerters.NewMembership(name, clock, emit)
		p.sys.Ring.OnMembership(al)
		task.closers = append(task.closers, al.Close)
	case "rss":
		target := p.sys.Peer(n.Alerter.Peer)
		if target == nil {
			return fmt.Errorf("peer: rssCOM target %q is not a peer", n.Alerter.Peer)
		}
		url, fetch, err := target.feed(argAttr(n, "feed", "url"))
		if err != nil {
			return err
		}
		al := alerters.NewRSS(name, url, fetch, clock, emit)
		if _, err := al.Poll(); err != nil { // establish the baseline
			return err
		}
		task.pollers = append(task.pollers, func() (int, error) { return al.Poll() })
		task.closers = append(task.closers, al.Close)
	case "webpage":
		target := p.sys.Peer(n.Alerter.Peer)
		if target == nil {
			return fmt.Errorf("peer: pageCOM target %q is not a peer", n.Alerter.Peer)
		}
		url, fetch, err := target.page(argAttr(n, "page", "url"))
		if err != nil {
			return err
		}
		al := alerters.NewWebPage(name, url, fetch, true, clock, emit)
		if _, err := al.Poll(); err != nil {
			return err
		}
		task.pollers = append(task.pollers, func() (int, error) {
			ok, err := al.Poll()
			if ok {
				return 1, err
			}
			return 0, err
		})
		task.closers = append(task.closers, al.Close)
	case "axml":
		target := p.sys.Peer(n.Alerter.Peer)
		if target == nil {
			return fmt.Errorf("peer: axmlCOM target %q is not a peer", n.Alerter.Peer)
		}
		target.Repo() // ensure the repository event channel exists
		// Repository events are live alerts: the edge is never cursor-gated.
		e := p.sys.newEdge(task, n.Peer)
		e.into(stream.NewQueue(), 0, false)
		e.attach(target.repoCh, 0)
		h := p.sys.executor(n.Peer).Run(&operators.Union{}, []*stream.Queue{e.queue}, emit)
		task.handles = append(task.handles, h)
	default:
		return fmt.Errorf("peer: unknown alerter kind %q", n.Alerter.Kind)
	}
	return nil
}

// argAttr extracts an attribute from an alerter's XML argument, e.g. the
// url of <feed url="..."/>.
func argAttr(n *algebra.Node, elem, attr string) string {
	for _, a := range n.Alerter.Args {
		if a.Label == elem {
			return a.AttrOr(attr, "")
		}
	}
	return ""
}

// runDynAlerter starts the manager of an inCOM($j)-style source's
// dynamic alerter set on its host's loop, reading membership events from
// driver. The manager has no checkpoint: its handle is the task's to
// await, not an instance to snapshot.
func (p *Peer) runDynAlerter(task *Task, n *algebra.Node, driver *stream.Queue, out *stream.Channel) *operators.Handle {
	d := &dynAlerter{sys: p.sys, task: task, fn: n.Alerter.Func, dir: alerters.Inbound, out: out, active: make(map[string]func())}
	if d.fn == "outCOM" {
		d.dir = alerters.Outbound
	}
	h := p.sys.executor(out.Ref().PeerID).Run(d, []*stream.Queue{driver}, operators.ChannelPublish(out))
	task.handles = append(task.handles, h)
	return h
}

// dynAlerter is that manager: membership events attach and detach WS
// alerters on the joined peers, all publishing into the same output
// channel, which the handle's eos closes once Flush detached the rest.
type dynAlerter struct {
	sys    *System
	task   *Task
	fn     string
	dir    alerters.Direction
	out    *stream.Channel
	active map[string]func() // monitored peer → detach
}

func (d *dynAlerter) Name() string { return "DynAlerter" }

func (d *dynAlerter) Accept(_ int, it stream.Item, _ operators.Emit) {
	peerName := it.Tree.InnerText()
	switch it.Tree.Label {
	case "p-join":
		if _, dup := d.active[peerName]; !dup {
			d.active[peerName] = d.sys.tap(peerName, d.dir).Attach(d.fn+"@"+peerName, includeEnvelopes, d.out.Publish)
		}
	case "p-leave":
		// "inCOM removes peers from the collection of monitored peers"
		// (Section 2).
		if detach, ok := d.active[peerName]; ok {
			detach()
			delete(d.active, peerName)
		}
	}
	d.task.dynEvents.Add(1)
}

func (d *dynAlerter) Flush(operators.Emit) {
	for _, detach := range d.active {
		detach()
	}
}

// includeEnvelopes: the runtime's WS alerts embed the intercepted SOAP
// envelopes. They dominate alert size (docs/DATAPATH.md hop 2), and no
// deployment ever ran without them.
const includeEnvelopes = true

// executor returns the event loop of one peer: every operator the peer
// hosts and its endpoint's taps are stepped there, one at a time.
func (s *System) executor(peer string) *operators.Executor {
	s.loopMu.Lock()
	defer s.loopMu.Unlock()
	ex := s.loops[peer]
	if ex == nil {
		ex = operators.NewExecutor(s.idle)
		if s.tele != nil {
			ex.Instrument(s.tele.reg, telemetry.L("peer", peer))
		}
		s.loops[peer] = ex
	}
	return ex
}

// tapKey names one interception point: a monitored peer's endpoint and
// the direction of the calls observed there.
type tapKey struct {
	peer string
	dir  alerters.Direction
}

// tap returns the WS tap of one endpoint direction, registering its hook
// on the endpoint the first time anything monitors it. Every WS alerter
// of every task attaches here and detaches when it stops, so the
// endpoint carries one hook however many subscriptions come and go. The
// tapped peer's loop fires what the hook captures.
func (s *System) tap(peer string, dir alerters.Direction) *alerters.Tap {
	ex := s.executor(peer)
	s.loopMu.Lock()
	defer s.loopMu.Unlock()
	k := tapKey{peer, dir}
	t := s.taps[k]
	if t == nil {
		t = alerters.NewTap(peer, dir, s.clock.Now)
		t.RunOn(ex)
		if ep := s.Fabric.Endpoint(peer); dir == alerters.Inbound {
			ep.OnInbound(t.Hook())
		} else {
			ep.OnOutbound(t.Hook())
		}
		s.taps[k] = t
	}
	return t
}

// deployPublisher wires the BY-clause targets: the named result channel,
// plus e-mail / file / RSS sinks and delegated channel subscriptions. It
// returns the named channel, which is the task's public result stream.
func (p *Peer) deployPublisher(task *Task, n *algebra.Node, in *stream.Queue) (*stream.Channel, error) {
	named := p.sys.allocChannel(task, n.Peer, n.Publish.ChannelID)
	task.namedCh = named
	for _, tgt := range n.Publish.Targets {
		if tgt.Kind != p2pml.BySubscribe {
			continue
		}
		// subscribe(peer, #id, name): the target peer is enrolled as the
		// channel's first client, delivery landing in its #id incoming
		// queue. The edge is task-level state like the other sinks: a
		// publisher migration re-binds it with every other consumer of the
		// named channel, resumed from what the target already received.
		target, err := p.sys.AddPeer(tgt.Peer)
		if err != nil {
			return nil, err
		}
		e := p.sys.newEdge(task, tgt.Peer)
		e.into(target.Incoming(tgt.ChannelID), 0, p.sys.replayOn())
		e.attach(named, 0)
	}
	p.runPublisher(task, n, in, named)
	return named, nil
}

// runPublisher builds the sink fan-out feeding the named channel and the
// human-facing targets, and starts the publisher operator over in. The
// sinks reference task-level state (Mailbox, FileOut, RSSOut), so
// failover can rebuild them at a new host without losing what was
// already published.
func (p *Peer) runPublisher(task *Task, n *algebra.Node, in *stream.Queue, named *stream.Channel) {
	var sinks []operators.Emit
	sinks = append(sinks, operators.ChannelPublish(named))
	for _, tgt := range n.Publish.Targets {
		switch tgt.Kind {
		case p2pml.ByPublishChannel, p2pml.ByChannel, p2pml.BySubscribe:
			// The named channel above covers channel publication, and a
			// subscribe target is one of its consumers (deployPublisher).
		case p2pml.ByEmail:
			ep := &operators.EmailPublisher{W: &task.Mailbox, To: tgt.Name}
			sinks = append(sinks, ep.Emit)
		case p2pml.ByFile:
			fp := &operators.XMLFilePublisher{W: &task.FileOut}
			sinks = append(sinks, fp.Emit)
		case p2pml.ByRSS:
			if task.RSSOut == nil { // re-deployments keep the accumulated feed
				task.RSSOut = &operators.RSSPublisher{Title: tgt.Name, MaxItems: 50}
			}
			sinks = append(sinks, task.RSSOut.Emit)
		}
	}
	fanout := func(it stream.Item) {
		// Fail-stop fidelity: a fan-out whose host crashed (or whose
		// channel was superseded by a migration) emits nothing — its
		// replacement instance owns the sinks now. Without this guard the
		// dead instance would keep draining its closed queue into the
		// shared mailbox/file/feed alongside the replacement.
		if !p.sys.usable(named.Ref()) {
			return
		}
		for _, s := range sinks {
			s(it)
		}
	}
	proc := &operators.Union{}
	h := p.sys.executor(named.Ref().PeerID).Run(proc, []*stream.Queue{in}, fanout)
	task.handles = append(task.handles, h)
	task.procs[n] = &procInstance{proc: proc, handle: h}
}
