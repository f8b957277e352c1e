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
}

// pipeline is the one Figure 3 chain. Subscribe, DeployPlanShared and
// both Explains run it; they differ only in these settings.
type pipeline struct {
	sys        *System // whose stream database reuse consults; nil without one
	subscriber string
	pushdown   bool
	reuse      bool
	keepNaive  bool // keep a copy of the compiled plan (Explain)
}

// pipeline is this system's chain for a subscription managed at
// subscriber, as configured.
func (s *System) pipeline(subscriber string) pipeline {
	return pipeline{sys: s, subscriber: subscriber, pushdown: s.cfg.Pushdown, reuse: s.cfg.Reuse}
}

// run takes ex from the stage it holds to the plan that deploys, and
// returns that plan. With only a Subscription it compiles it and
// optimizes the plan (pushdown as set, then placement). With Optimized
// already set, a built and placed plan, it enters at the reuse stage,
// which leaves Optimized untouched: the plan is covered with existing
// streams, preferring a live provider that is close and unloaded, then
// re-placed so fresh operators follow their reused inputs (a residual σ
// runs at the chosen provider, not where the original plan put it).
func (pl pipeline) run(ex *Explanation) (*algebra.Node, error) {
	if ex.Optimized == nil {
		plan, err := algebra.Compile(ex.Subscription)
		if err != nil {
			return nil, err
		}
		if pl.keepNaive {
			ex.NaivePlan = plan.Clone()
		}
		ex.Optimized = algebra.Optimize(plan, algebra.Options{SubscriberPeer: pl.subscriber, Pushdown: pl.pushdown})
	}
	if !pl.reuse {
		return ex.Optimized, nil
	}
	s := pl.sys
	ro := reuse.Options{From: pl.subscriber, Consumer: pl.subscriber,
		Choose: aliveOnly(s, reuse.PreferClose(s.Net.Distance, s.load))}
	res, err := ro.Apply(ex.Optimized, s.DB)
	if err != nil {
		return nil, err
	}
	res.Plan = algebra.Optimize(res.Plan, algebra.Options{SubscriberPeer: pl.subscriber})
	ex.Reuse = res
	return res.Plan, nil
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
