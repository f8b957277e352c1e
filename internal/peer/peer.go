package peer

import (
	"fmt"
	"sync"
	"sync/atomic"

	"p2pm/internal/alerters"
	"p2pm/internal/algebra"
	"p2pm/internal/p2pml"
	"p2pm/internal/rss"
	"p2pm/internal/soap"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// Peer is one P2PM peer. Per Figure 2 it can host alerters, stream
// processors and publishers; the minimum it runs is a Subscription
// Manager, which this type implements: accepting P2PML subscriptions,
// compiling/optimizing/reusing, deploying and tracking them in its
// subscription database.
type Peer struct {
	sys      *System
	name     string
	endpoint *soap.Endpoint

	mu       sync.Mutex
	tasks    map[string]*Task // the subscription database
	repo     *alerters.AXMLRepo
	repoCh   *stream.Channel
	feeds    map[string]func() (*rss.Feed, error)
	pages    map[string]func() (*xmltree.Node, error)
	incoming map[string]*stream.Queue

	// channels counts the channels ever allocated on this peer
	// (System.load).
	channels atomic.Int64
}

// Name returns the peer's identity.
func (p *Peer) Name() string { return p.name }

// Endpoint exposes the peer's SOAP stack so workloads can register
// services and issue calls.
func (p *Peer) Endpoint() *soap.Endpoint { return p.endpoint }

// RegisterFeed publishes an RSS feed at this peer under the given URL;
// rssCOM alerters monitoring this peer poll it.
func (p *Peer) RegisterFeed(url string, fetch func() (*rss.Feed, error)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.feeds[url] = fetch
}

// RegisterPage publishes a Web page at this peer; pageCOM alerters
// monitoring this peer poll it.
func (p *Peer) RegisterPage(url string, fetch func() (*xmltree.Node, error)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pages[url] = fetch
}

// feed resolves a registered feed; an empty URL selects the peer's only
// feed. The resolved URL is returned so alerts carry it even when the
// subscription left it implicit.
func (p *Peer) feed(url string) (string, func() (*rss.Feed, error), error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if url == "" && len(p.feeds) == 1 {
		for u, f := range p.feeds {
			return u, f, nil
		}
	}
	if f, ok := p.feeds[url]; ok {
		return url, f, nil
	}
	return "", nil, fmt.Errorf("peer: no feed %q registered at %s", url, p.name)
}

// page resolves a registered page; an empty URL selects the only page.
func (p *Peer) page(url string) (string, func() (*xmltree.Node, error), error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if url == "" && len(p.pages) == 1 {
		for u, f := range p.pages {
			return u, f, nil
		}
	}
	if f, ok := p.pages[url]; ok {
		return url, f, nil
	}
	return "", nil, fmt.Errorf("peer: no page %q registered at %s", url, p.name)
}

// Repo returns the peer's ActiveXML repository, creating it (and its
// permanent event channel) on first use. All axmlCOM alerters monitoring
// this peer consume the same event channel.
func (p *Peer) Repo() *alerters.AXMLRepo {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.repo == nil {
		ch := stream.NewChannel(p.name, "axml-events")
		p.sys.registerChannel(ch)
		p.repoCh = ch
		p.repo = alerters.NewAXMLRepo("axml@"+p.name, true, p.sys.clock.Now, func(it stream.Item) {
			if it.EOS() {
				ch.Close()
				return
			}
			ch.Publish(it)
		})
	}
	return p.repo
}

// Incoming returns the queue bound to a #channelID expectation at this
// peer (the ♯X@b.com destinations of Section 3.4), creating it lazily.
func (p *Peer) Incoming(id string) *stream.Queue {
	p.mu.Lock()
	defer p.mu.Unlock()
	q, ok := p.incoming[id]
	if !ok {
		q = stream.NewQueue()
		p.incoming[id] = q
	}
	return q
}

// Subscribe accepts a P2PML subscription: this peer becomes its
// Subscription Manager. The text is parsed, compiled into an algebraic
// plan, optimized, covered with existing streams when reuse is enabled,
// deployed across the involved peers, and recorded in the subscription
// database.
func (p *Peer) Subscribe(src string) (*Task, error) {
	sub, err := p2pml.Parse(src)
	if err != nil {
		return nil, err
	}
	return p.SubscribeParsed(sub)
}

// SubscribeParsed is Subscribe for an already-parsed subscription. It
// deploys the last stage of the system's pipeline, which Explain shows.
func (p *Peer) SubscribeParsed(sub *p2pml.Subscription) (*Task, error) {
	ex := Explanation{Subscription: sub}
	plan, err := p.sys.pipeline(p.name).run(&ex)
	if err != nil {
		return nil, err
	}
	return p.start(&Task{Sub: sub, Plan: plan, Reuse: ex.Reuse})
}

// start is the one way a task comes to run under this manager: it gets
// its id, its plan is deployed (and torn down again if any part of the
// deployment fails), and it enters the subscription database.
func (p *Peer) start(task *Task) (*Task, error) {
	task.ID, task.Manager, task.sys = p.sys.nextTaskID(), p.name, p.sys
	if err := p.deploy(task); err != nil {
		task.Stop()
		return nil, err
	}
	p.mu.Lock()
	p.tasks[task.ID] = task
	p.mu.Unlock()
	return task, nil
}

// DeployPlan deploys a programmatically built monitoring plan. The plan
// must be rooted at a Publish node and fully placed (no @any operators) —
// run algebra.Optimize first for placement. It serves plan shapes P2PML
// cannot state, such as a Group over a union of Groups. The deployed copy
// has its WS alerters marked (algebra.MarkBodyReaders); the input plan is
// not modified.
func (p *Peer) DeployPlan(plan *algebra.Node) (*Task, error) {
	if plan == nil || plan.Op != algebra.OpPublish {
		return nil, fmt.Errorf("peer: plan must be rooted at a Publish node")
	}
	var anyErr error
	plan.Walk(func(n *algebra.Node) {
		if n.Peer == algebra.AnyPeer {
			anyErr = fmt.Errorf("peer: operator %s is unplaced; run algebra.Optimize", n.Label())
		}
	})
	if anyErr != nil {
		return nil, anyErr
	}
	return p.start(&Task{Plan: algebra.MarkBodyReaders(plan.Clone())})
}

// DeployPlanShared is DeployPlan preceded by the pipeline's reuse
// stage, which runs whatever Config.Reuse says: the plan is covered with
// existing streams (exact matches, filter subsumption, aggregate-tree
// grafting) before deployment, then re-placed so fresh operators follow
// their reused inputs. It does not optimize first, so a hand-placed γ
// keeps its peer. A built windowed-Group plan deployed through it shares
// aggregation trees with other such plans and with P2PML group
// subscriptions over the same sources. The input plan is not modified.
func (p *Peer) DeployPlanShared(plan *algebra.Node) (*Task, error) {
	if plan == nil || plan.Op != algebra.OpPublish {
		return nil, fmt.Errorf("peer: plan must be rooted at a Publish node")
	}
	ex := Explanation{Optimized: plan.Clone()}
	shared, err := pipeline{sys: p.sys, subscriber: p.name, reuse: true}.run(&ex)
	if err != nil {
		return nil, err
	}
	return p.start(&Task{Plan: shared, Reuse: ex.Reuse})
}

// Tasks lists the subscription database contents.
func (p *Peer) Tasks() []*Task {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Task, 0, len(p.tasks))
	for _, t := range p.tasks {
		out = append(out, t)
	}
	return out
}

// pollTasks drives all polling alerters of this peer's tasks once.
func (p *Peer) pollTasks() (int, error) {
	p.mu.Lock()
	tasks := make([]*Task, 0, len(p.tasks))
	for _, t := range p.tasks {
		tasks = append(tasks, t)
	}
	p.mu.Unlock()
	total := 0
	var firstErr error
	for _, t := range tasks {
		n, err := t.Poll()
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// Components reports which module kinds this peer currently hosts —
// the Figure 2 architecture introspection.
func (p *Peer) Components() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := []string{"SubscriptionManager"}
	seen := map[string]bool{}
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, t := range p.tasks {
		t.Plan.Walk(func(n *algebra.Node) {
			if n.Peer != p.name {
				return
			}
			switch n.Op {
			case algebra.OpAlerter, algebra.OpDynAlerter:
				add("Alerter:" + n.Alerter.Func)
			case algebra.OpPublish:
				add("Publisher")
			case algebra.OpChannelIn:
			default:
				add("Processor:" + n.Op.String())
			}
		})
	}
	if p.repo != nil {
		add("AXMLRepository")
	}
	return out
}
