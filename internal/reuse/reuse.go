// Package reuse implements the stream-reuse algorithm of Section 5: when
// a new subscription arrives, the Subscription Manager searches the
// Stream Definition Database for existing streams that already compute
// sub-plans of the new monitoring plan, "to save CPU consumption and
// network traffic". One query first asks for the stream the publisher
// reads, by the plan's own signature: when it already runs, the plan is a
// subscription to it and nothing else is discovered. Otherwise the
// algorithm proceeds from the leaves: operators whose operands are all
// matched generate discovery queries; matched nodes are substituted by
// channel subscriptions, preferring a replica that is close (networkwise)
// and not overloaded.
package reuse

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"p2pm/internal/algebra"
	"p2pm/internal/kadop"
	"p2pm/internal/stream"
)

// Chooser selects the provider among the original stream and its
// replicas, given the consuming peer. A nil Chooser always picks the
// original.
type Chooser func(consumer string, original stream.Ref, replicas []stream.Ref) stream.Ref

// PreferClose builds a Chooser that minimizes distance(consumer,
// provider) with load as tie-breaker — the optimizer policy sketched in
// Section 5 ("preferably close (networkwise) and not overloaded").
func PreferClose(distance func(a, b string) float64, load func(peer string) int) Chooser {
	return func(consumer string, original stream.Ref, replicas []stream.Ref) stream.Ref {
		best := original
		bestD := distance(consumer, original.PeerID)
		bestL := load(original.PeerID)
		for _, r := range replicas {
			d := distance(consumer, r.PeerID)
			l := load(r.PeerID)
			if d < bestD || (d == bestD && l < bestL) {
				best, bestD, bestL = r, d, l
			}
		}
		return best
	}
}

// Options configures one reuse pass.
type Options struct {
	// From is the peer issuing the discovery queries (hop accounting).
	From string
	// Consumer is the peer on whose behalf providers are chosen (the
	// subscription manager); empty falls back to the covered node's
	// placement.
	Consumer string
	// Choose selects among original and replicas; nil keeps originals.
	Choose Chooser
}

// Mapping records one substitution.
type Mapping struct {
	Signature string
	Original  stream.Ref
	Provider  stream.Ref
	IsReplica bool
}

// Result reports the outcome of a reuse pass.
type Result struct {
	Plan     *algebra.Node
	Mappings []Mapping
	// ReusedOps counts plan operators that no longer need deployment;
	// NewOps counts the ones that still do (publishers excluded).
	ReusedOps int
	NewOps    int
	// Lookups/Hops account the DHT traffic of the discovery queries.
	Lookups int
	Hops    int
	// FailedLookups counts discovery queries that errored and were
	// answered conservatively (e.g. a replica lookup that failed, so the
	// original provider was kept). Nonzero values flag DHT trouble the
	// rewrite papered over.
	FailedLookups int
}

// matchInfo records a covered plan node: the original stream computing it
// and that stream's published signature (signatures compose over
// *published* definitions, so a plan built on reused channels matches
// streams built on the original computations).
type matchInfo struct {
	ref stream.Ref
	sig string
}

// Apply searches db for streams covering sub-plans of plan and returns a
// rewritten plan in which every topmost covered node is replaced by a
// channel subscription (and every partially covered σ by a residual
// filter over one). The input plan is not modified.
//
// The commonest cover is the whole plan: the stream the publisher reads
// already runs. One query for that stream's signature answers it before
// anything is cloned; only when it misses does the bottom-up pass run,
// and that pass reads the miss back instead of asking again.
func (o Options) Apply(plan *algebra.Node, db *kadop.DB) (*Result, error) {
	r := &Result{}
	st := &matchState{}
	if o.probe(plan, db, st, r) {
		return r, nil
	}
	work := plan.Clone()
	st.matched = make(map[*algebra.Node]matchInfo)
	st.partials = make(map[*algebra.Node]*partialMatch)
	st.aggCovers = make(map[*algebra.Node]*aggCover)
	st.sigs = make(map[*algebra.Node]string)
	if _, err := o.match(work, db, st, r); err != nil {
		return nil, err
	}
	r.Plan = o.rewrite(work, db, st, r)
	r.Plan.Walk(func(n *algebra.Node) {
		switch n.Op {
		case algebra.OpPublish:
		case algebra.OpChannelIn:
		default:
			r.NewOps++
		}
	})
	return r, nil
}

// probe looks up the stream a publisher reads by the signature the plan
// states for it, and on a hit sets r to what the bottom-up pass would
// return: the publisher over a subscription to that stream. It probes
// only a plan the pass would sign the same way — no channel anywhere, and
// not a bare alerter on top, whose discovery weighs both envelope
// flavours. A miss is remembered in st.
func (o Options) probe(plan *algebra.Node, db *kadop.DB, st *matchState, r *Result) bool {
	if plan.Op != algebra.OpPublish || len(plan.Inputs) != 1 || plan.Inputs[0].Op == algebra.OpAlerter {
		return false
	}
	top := plan.Inputs[0]
	signable := true
	top.Walk(func(n *algebra.Node) {
		signable = signable && n.Op != algebra.OpChannelIn
	})
	if !signable {
		return false
	}
	sig := top.Signature()
	defs, hops, err := db.FindBySignature(o.From, sig)
	r.Lookups++
	r.Hops += hops
	if err != nil {
		return false // the bottom-up pass asks again and reports it
	}
	if len(defs) == 0 {
		st.missed = sig
		return false
	}
	pub := *plan
	pub.Schema = append([]string(nil), plan.Schema...)
	pub.Inputs = []*algebra.Node{o.channelNode(top, matchInfo{ref: defs[0].Ref, sig: sig}, db, r)}
	r.Plan = &pub
	r.ReusedOps = top.Count()
	return true
}

// matchState carries the bottom-up cover computed by match.
type matchState struct {
	matched   map[*algebra.Node]matchInfo
	partials  map[*algebra.Node]*partialMatch
	aggCovers map[*algebra.Node]*aggCover
	// sigs records every node's compositional signature — aggregate
	// containment compares a union's branch identities against published
	// partial streams' source sets.
	sigs map[*algebra.Node]string
	// missed is the signature the probe found no stream for.
	missed string
}

// findBySignature is db.FindBySignature, answered from the probe's miss
// when it asks for the same signature.
func (o Options) findBySignature(sig string, db *kadop.DB, st *matchState, r *Result) ([]*kadop.StreamDef, error) {
	if sig == st.missed {
		return nil, nil
	}
	defs, hops, err := db.FindBySignature(o.From, sig)
	r.Lookups++
	r.Hops += hops
	if err != nil {
		return nil, fmt.Errorf("reuse: signature discovery: %w", err)
	}
	return defs, nil
}

// match fills the state bottom-up and returns the node's compositional
// signature (over published definitions where inputs matched, over the
// plan structure otherwise).
func (o Options) match(n *algebra.Node, db *kadop.DB, st *matchState, r *Result) (string, error) {
	sig, err := o.matchNode(n, db, st, r)
	if err == nil {
		st.sigs[n] = sig
	}
	return sig, err
}

func (o Options) matchNode(n *algebra.Node, db *kadop.DB, st *matchState, r *Result) (string, error) {
	childSigs := make([]string, len(n.Inputs))
	allChildren := true
	for i, in := range n.Inputs {
		sig, err := o.match(in, db, st, r)
		if err != nil {
			return "", err
		}
		childSigs[i] = sig
		if _, ok := st.matched[in]; !ok {
			allChildren = false
		}
	}
	sig := n.SignatureWith(childSigs)
	switch n.Op {
	case algebra.OpPublish:
		return sig, nil // a sink is never reused
	case algebra.OpChannelIn:
		// An explicit channel subscription: resolve its published
		// signature so operators above it can match streams derived from
		// the same computation.
		orig := n.Origin
		if orig == (stream.Ref{}) {
			orig = n.Channel
		}
		def, hops, err := db.FindByRef(o.From, orig)
		r.Lookups++
		r.Hops += hops
		if err != nil {
			return "", fmt.Errorf("reuse: channel resolution: %w", err)
		}
		if def != nil && def.Signature != "" {
			sig = def.Signature
		}
		st.matched[n] = matchInfo{ref: orig, sig: sig}
		return sig, nil
	case algebra.OpAlerter:
		defs, hops, err := db.FindAlerters(o.From, n.Alerter.Peer, n.Alerter.Func)
		r.Lookups++
		r.Hops += hops
		if err != nil {
			return "", fmt.Errorf("reuse: alerter discovery: %w", err)
		}
		if def := alerterFlavour(n, sig, defs); def != nil {
			if def.Signature != "" {
				sig = def.Signature
			}
			st.matched[n] = matchInfo{ref: def.Ref, sig: sig}
		}
		return sig, nil
	default:
		if !allChildren {
			// An operand must be produced fresh, so must this node — with
			// one exception: aggregates. A tree deployment publishes no
			// Union stream (the union dissolves into partial/merge nodes),
			// so a Group whose branches all matched still reaches here. Its
			// compositional signature equals the flat alias a tree's Final
			// root publishes under, so try the exact match anyway; failing
			// that, covered branches can still arrive pre-merged even when
			// other branches must be produced fresh.
			if n.Op == algebra.OpGroup && n.Group != nil &&
				len(n.Inputs) == 1 && n.Inputs[0].Op == algebra.OpUnion &&
				allIn(st.matched, n.Inputs[0].Inputs) {
				defs, err := o.findBySignature(sig, db, st, r)
				if err != nil {
					return "", err
				}
				if len(defs) > 0 {
					st.matched[n] = matchInfo{ref: defs[0].Ref, sig: sig}
					return sig, nil
				}
			}
			if cover, cerr := o.coverAgg(n, db, st, r); cerr != nil {
				return "", cerr
			} else if cover != nil {
				st.aggCovers[n] = cover
			}
			return sig, nil
		}
		defs, err := o.findBySignature(sig, db, st, r)
		if err != nil {
			return "", err
		}
		if len(defs) > 0 {
			st.matched[n] = matchInfo{ref: defs[0].Ref, sig: sig}
			return sig, nil
		}
		// No exact match. For σ over a matched input, look for streams
		// that hold *sufficient* data: published filters covering a
		// subset of our conditions (chained through derived filters).
		if n.Op == algebra.OpSelect {
			child := st.matched[n.Inputs[0]]
			full, partial, err := o.subsume(n, child.ref, db, r)
			if err != nil {
				return "", err
			}
			if full != nil {
				st.matched[n] = *full
				return full.sig, nil
			}
			if partial != nil {
				st.partials[n] = partial
			}
		}
		// For Group over a union, look for partial-aggregation streams
		// whose source sets are contained in ours: they hold sufficient
		// (pre-merged) data for the covered branches.
		if cover, cerr := o.coverAgg(n, db, st, r); cerr != nil {
			return "", cerr
		} else if cover != nil {
			st.aggCovers[n] = cover
		}
		return sig, nil
	}
}

// rewrite replaces each topmost matched node with a channel subscription
// to the chosen provider, and each partially covered σ with a residual
// filter over one.
func (o Options) rewrite(n *algebra.Node, db *kadop.DB, st *matchState, r *Result) *algebra.Node {
	if m, ok := st.matched[n]; ok && n.Op != algebra.OpChannelIn {
		r.ReusedOps += n.Count()
		return o.channelNode(n, m, db, r)
	}
	if p, ok := st.partials[n]; ok && n.Op == algebra.OpSelect {
		m := matchInfo{ref: p.ref, sig: p.sig}
		chIn := o.channelNode(n, m, db, r)
		r.ReusedOps += n.Inputs[0].Count()
		return &algebra.Node{
			Op:     algebra.OpSelect,
			Peer:   n.Peer,
			Inputs: []*algebra.Node{chIn},
			Schema: append([]string(nil), n.Schema...),
			// Only the LET bindings the residual conditions reference ride
			// along: the full set would make this node differ from an
			// equivalently hand-written σ and break later chain matches.
			Select: &algebra.SelectSpec{Conds: p.residual, Lets: algebra.NeededLets(n.Select.Lets, p.residual...)},
		}
	}
	if c, ok := st.aggCovers[n]; ok {
		return o.graftNode(n, c, db, st, r)
	}
	for i, in := range n.Inputs {
		n.Inputs[i] = o.rewrite(in, db, st, r)
	}
	return n
}

// channelNode builds the channel-subscription replacement for a covered
// node, selecting among the original stream and its replicas.
func (o Options) channelNode(n *algebra.Node, m matchInfo, db *kadop.DB, r *Result) *algebra.Node {
	provider := m.ref
	isReplica := false
	replicas, hops, err := db.Replicas(o.From, m.ref)
	r.Lookups++
	r.Hops += hops
	if err != nil {
		// The original stream is always a valid provider, so a failed
		// replica lookup degrades the choice rather than the rewrite —
		// but it must not pass silently.
		r.FailedLookups++
	}
	consumer := o.Consumer
	if consumer == "" {
		consumer = consumerPeer(n)
	}
	// Choosing needs a known consumer: for AnyPeer nodes (not yet
	// placed) a distance-based chooser would score distance("", ·),
	// which is meaningless — keep the original provider instead.
	if err == nil && o.Choose != nil && consumer != "" {
		provider = o.Choose(consumer, m.ref, replicas)
		isReplica = provider != m.ref
	}
	r.Mappings = append(r.Mappings, Mapping{
		Signature: m.sig, Original: m.ref, Provider: provider, IsReplica: isReplica,
	})
	return &algebra.Node{
		Op:      algebra.OpChannelIn,
		Peer:    provider.PeerID,
		Schema:  append([]string(nil), n.Schema...),
		Channel: provider,
		Origin:  m.ref,
	}
}

// alerterFlavour picks the published alerter an alerter node signed sig
// reuses: a body reader only one signed as it is, any other node one
// signed as it is first and, failing that, the same alerter's other
// flavour — body-carrying, an envelope it never reads. nil when none
// fits. The lookup returns every alerter of the function at the peer, so
// the other flavour is told by its signature too: an alerter watching
// another feed is not one.
func alerterFlavour(n *algebra.Node, sig string, defs []*kadop.StreamDef) *kadop.StreamDef {
	reader := n.Body == algebra.BodyRead
	var other *kadop.StreamDef
	for _, d := range defs {
		if d.Signature == sig || (d.Signature == "" && !reader) {
			return d
		}
		if other == nil && !reader {
			body := *n
			body.Body = algebra.BodyRead
			if d.Signature == body.SignatureWith(nil) {
				other = d
			}
		}
	}
	return other
}

// allIn reports whether every node is matched.
func allIn(matched map[*algebra.Node]matchInfo, nodes []*algebra.Node) bool {
	for _, n := range nodes {
		if _, ok := matched[n]; !ok {
			return false
		}
	}
	return true
}

// consumerPeer estimates where the substituted stream will be consumed:
// the node's assigned peer when concrete, else the original provider.
func consumerPeer(n *algebra.Node) string {
	if n.Peer != algebra.AnyPeer && n.Peer != "" {
		return n.Peer
	}
	return ""
}

// PublishPlan assigns a stream reference to every non-publisher node of a
// deployed plan and publishes the corresponding descriptors — the "derived
// streams are declared with respect to original streams" bookkeeping that
// deployment performs so later subscriptions can reuse this work.
// nextID generates fresh stream IDs per peer. It returns the per-node
// references.
func PublishPlan(db *kadop.DB, plan *algebra.Node, nextID func(peer string) string) (map[*algebra.Node]stream.Ref, error) {
	refs := make(map[*algebra.Node]stream.Ref)
	sigs := make(map[*algebra.Node]string)
	srcs := make(map[*algebra.Node][]string)
	var err error
	plan.Walk(func(n *algebra.Node) {
		if err != nil {
			return
		}
		switch n.Op {
		case algebra.OpPublish:
			return
		case algebra.OpChannelIn:
			// Reused stream: identify by its original so descriptors of
			// consumers reference originals, and adopt its published
			// signature (and, for partial-aggregation streams, the source
			// set it pre-merges) so streams built on top stay matchable.
			orig := n.Origin
			if orig == (stream.Ref{}) {
				orig = n.Channel
			}
			refs[n] = orig
			sigs[n] = "chan(" + orig.String() + ")"
			if def, _, e := db.FindByRef("", orig); e == nil && def != nil {
				if def.Signature != "" {
					sigs[n] = def.Signature
				}
				srcs[n] = def.Sources
			}
			return
		}
		ref := stream.Ref{PeerID: n.Peer, StreamID: nextID(n.Peer)}
		refs[n] = ref
		childSigs := make([]string, len(n.Inputs))
		for i, in := range n.Inputs {
			childSigs[i] = sigs[in]
		}
		sigs[n] = n.SignatureWith(childSigs)
		switch n.Op {
		case algebra.OpPartialAgg:
			srcs[n] = []string{sigs[n.Inputs[0]]}
		case algebra.OpMergeAgg:
			srcs[n] = mergedSources(n, srcs)
		}
		def := &kadop.StreamDef{
			Ref:       ref,
			IsChannel: true,
			Operator:  operatorName(n),
			Signature: sigs[n],
			Stats:     map[string]string{},
		}
		if conds, ok := algebra.CanonConds(n); ok {
			def.Conds = slices.Sorted(maps.Keys(conds))
		}
		switch {
		case n.Op == algebra.OpPartialAgg || (n.Op == algebra.OpMergeAgg && !n.Group.Final):
			// Partial-format emitters: indexed under the aggregate identity
			// with the source set they pre-merge, so later subscriptions
			// whose unions contain those sources graft them in.
			if len(srcs[n]) > 0 {
				def.Group = n.Group.Ident()
				def.Sources = srcs[n]
			}
		case n.Op == algebra.OpMergeAgg && n.Group.Final:
			// The Final root emits exactly the records a flat Group over
			// the union of all sources would: publish it under that flat
			// alias so later flat plans match tree-deployed work exactly,
			// whatever the tree shape.
			if ss := srcs[n]; len(ss) > 0 {
				sigs[n] = algebra.FlatGroupSignature(n.Group, ss)
				def.Signature = sigs[n]
			}
		}
		for _, in := range n.Inputs {
			def.Operands = append(def.Operands, refs[in])
		}
		if e := db.PublishIndexed(def); e != nil {
			err = e
		}
	})
	return refs, err
}

// mergedSources unions the source sets of a merge node's inputs, sorted
// and deduplicated. Any input with an unknown source set poisons the
// result (nil): a descriptor claiming a partial source set would let a
// later graft drop branches silently.
func mergedSources(n *algebra.Node, srcs map[*algebra.Node][]string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, in := range n.Inputs {
		ss := srcs[in]
		if len(ss) == 0 {
			return nil
		}
		for _, s := range ss {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	sort.Strings(out)
	return out
}

func operatorName(n *algebra.Node) string {
	switch n.Op {
	case algebra.OpAlerter:
		return n.Alerter.Func
	case algebra.OpSelect:
		return "Filter"
	case algebra.OpJoin:
		return "Join"
	case algebra.OpUnion:
		return "Union"
	case algebra.OpRestruct:
		return "Restructure"
	case algebra.OpDistinct:
		return "Distinct"
	case algebra.OpGroup:
		return "Group"
	case algebra.OpPartialAgg:
		return "PartialAgg"
	case algebra.OpMergeAgg:
		return "MergeAgg"
	case algebra.OpDynAlerter:
		return "DynAlerter"
	}
	return n.Op.String()
}
