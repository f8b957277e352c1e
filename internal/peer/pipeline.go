package peer

import (
	"fmt"
	"strings"

	"p2pm/internal/algebra"
	"p2pm/internal/p2pml"
	"p2pm/internal/reuse"
)

// Explanation holds the stages of the Figure 3 chain for one
// subscription: the parsed P2PML, the compiled plan, the optimized and
// placed plan and, when the reuse pass ran, its result, whose plan is
// re-placed over the reused streams. The last stage is the plan that
// deploys; the aggregation-tree rewrite that deploy may still apply is
// not a stage, because its DHT keys are scoped by the task id.
type Explanation struct {
	Subscription *p2pml.Subscription
	NaivePlan    *algebra.Node // kept by Explain only
	Optimized    *algebra.Node
	Reuse        *reuse.Result // nil when the reuse pass did not run

	memo *planMemo // the plan memo entry the chain read or made; nil without a memo
}

// pipeline is the one Figure 3 chain. Subscribe, DeployPlanShared and
// both Explains run it; they differ only in these settings.
type pipeline struct {
	sys        *System // whose stream database reuse consults; nil without one
	subscriber string
	pushdown   bool
	reuse      bool
	keepNaive  bool  // keep a copy of the compiled plan (Explain)
	memo       *Peer // the manager whose plan memo the chain reads and fills; Subscribe's only
}

// pipeline is this system's chain for a subscription managed at
// subscriber, as configured.
func (s *System) pipeline(subscriber string) pipeline {
	return pipeline{sys: s, subscriber: subscriber, pushdown: s.cfg.Pushdown, reuse: s.cfg.Reuse}
}

// subscribeChain is the chain Subscribe runs for sub at manager p: the
// system's, with p's plan memo when the reuse pass runs and sub has a
// body. The memo is a cache of the compile and optimize stages: their
// result depends only on the body, the subscriber and the system's fixed
// Pushdown. Without reuse the optimized plan itself deploys, so it cannot
// be shared; Explain, System.Explain and DeployPlanShared never read it,
// so System.Explain stays the uncached reference.
func (p *Peer) subscribeChain(sub *p2pml.Subscription) pipeline {
	pl := p.sys.pipeline(p.name)
	if pl.reuse && sub.Body() != "" {
		pl.memo = p
	}
	return pl
}

// planMemo is one entry of a manager's plan memo, keyed by a subscription
// body: the optimized, body-marked plan below the publisher, which
// nothing writes once it is in the memo, and the signature the reuse
// probe asks for. It lives while a live task the manager subscribed was
// compiled from it: tasks counts them, taken by Peer.admit and handed
// back by Peer.dismiss.
type planMemo struct {
	body  *algebra.Node
	sig   string
	tasks int
}

// run takes ex from the stage it holds to the plan that deploys, and
// returns that plan. With only a Subscription it compiles it and
// optimizes the plan (pushdown as set, then placement). With Optimized
// already set, a built and placed plan, it enters at the reuse stage.
// There Optimized's WS alerters are marked as body readers or bare, in
// place, and nothing else of it changes: the plan is covered with
// existing streams, preferring a live provider that is close and
// unloaded, then re-placed so fresh operators follow their reused
// inputs (a residual σ runs at the chosen provider, not where the
// original plan put it).
//
// With a plan memo, a body the manager compiled for a live task skips
// compiling, optimizing and marking: Optimized is a fresh publisher for
// this subscription's BY over the memoized plan, and the probe asks for
// the memoized signature. The reuse pass never writes its input, so the
// memoized plan stays as it was entered. A successful run leaves the
// entry, read or made, in ex; the task that deploys the plan is counted
// on it when it enters its manager's subscription database.
func (pl pipeline) run(ex *Explanation) (*algebra.Node, error) {
	var memo *planMemo
	if pl.memo != nil {
		pl.memo.mu.Lock()
		memo = pl.memo.memo[ex.Subscription.Body()]
		pl.memo.mu.Unlock()
	}
	if memo != nil {
		pl.sys.memoHits.Inc()
		ex.Optimized = algebra.NewPublisher(ex.Subscription.By, memo.body, pl.subscriber)
	} else if err := pl.optimize(ex); err != nil {
		return nil, err
	}
	if !pl.reuse {
		return ex.Optimized, nil
	}
	var sig string
	if memo != nil {
		sig = memo.sig
	} else {
		sig = reuse.ProbeSignature(ex.Optimized)
	}
	ro := reuse.Options{From: pl.subscriber, Consumer: pl.subscriber, Choose: pl.sys.choose}
	res, err := ro.ApplySigned(ex.Optimized, sig, pl.sys.DB)
	if err != nil {
		return nil, err
	}
	res.Plan = algebra.Optimize(res.Plan, algebra.Options{SubscriberPeer: pl.subscriber})
	ex.Reuse = res
	if pl.memo != nil {
		if memo == nil {
			memo = &planMemo{body: ex.Optimized.Inputs[0], sig: sig}
		}
		ex.memo = memo
	}
	return res.Plan, nil
}

// optimize brings ex to its optimized plan, compiling and optimizing the
// Subscription unless Optimized is set, and marks the plan's WS alerters.
func (pl pipeline) optimize(ex *Explanation) error {
	if ex.Optimized == nil {
		plan, err := algebra.Compile(ex.Subscription)
		if err != nil {
			return err
		}
		if pl.keepNaive {
			ex.NaivePlan = plan.Clone()
		}
		ex.Optimized = algebra.Optimize(plan, algebra.Options{SubscriberPeer: pl.subscriber, Pushdown: pl.pushdown})
	}
	// The envelope is part of an alerter's stream identity, so the marks
	// come before reuse, which hands a body reader no bare alerter.
	algebra.MarkBodyReaders(ex.Optimized)
	return nil
}

// Explain runs the chain without a system: it compiles and optimizes,
// with pushdown, and has no stream database to reuse from. subscriber
// names the managing peer.
func Explain(src, subscriber string) (*Explanation, error) {
	return pipeline{subscriber: subscriber, pushdown: true}.explain(src)
}

// Explain runs this system's chain, reuse pass included, for a
// subscription managed at subscriber, and deploys nothing: its last
// stage is the plan Subscribe would deploy at that peer now, before the
// aggregation-tree rewrite deploy applies to a wide windowed group.
func (s *System) Explain(src, subscriber string) (*Explanation, error) {
	return s.pipeline(subscriber).explain(src)
}

// explain parses src and runs the chain on it, keeping every stage.
func (pl pipeline) explain(src string) (*Explanation, error) {
	sub, err := p2pml.Parse(src)
	if err != nil {
		return nil, err
	}
	pl.keepNaive = true
	ex := &Explanation{Subscription: sub}
	if _, err := pl.run(ex); err != nil {
		return nil, err
	}
	return ex, nil
}

// String renders the explanation as the Figure 3 chain.
func (e *Explanation) String() string {
	var b strings.Builder
	b.WriteString("== Subscription (P2PML) ==\n")
	b.WriteString(e.Subscription.String())
	b.WriteString("\n\n== Compiled plan (generic operators @any) ==\n")
	b.WriteString(e.NaivePlan.String())
	b.WriteString("\n")
	b.WriteString(e.NaivePlan.Tree())
	b.WriteString("\n== Optimized plan (selections pushed, operators placed) ==\n")
	b.WriteString(e.Optimized.String())
	b.WriteString("\n")
	b.WriteString(e.Optimized.Tree())
	if e.Reuse != nil {
		fmt.Fprintf(&b, "\n== Stream reuse ==\nreused sub-plans: %d   operators still to deploy: %d\n",
			len(e.Reuse.Mappings), e.Reuse.NewOps)
		for _, m := range e.Reuse.Mappings {
			fmt.Fprintf(&b, "  %s <- %s (replica=%v)\n", m.Provider, m.Original, m.IsReplica)
		}
		b.WriteString(e.Reuse.Plan.Tree())
	}
	return b.String()
}
