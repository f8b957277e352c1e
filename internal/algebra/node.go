// Package algebra implements the stream algebra of Section 3: monitoring
// plans are trees of operators over XML streams — alerters (0-ary
// sources), stream processors (σ, Π, ∪, ⋈, Distinct, Group) and
// publishers. A P2PML subscription compiles into a naive plan, the
// optimizer rewrites it (selection pushdown, placement), and the peer
// layer deploys per-peer fragments connected by channels.
package algebra

import (
	"fmt"
	"sort"
	"strings"

	"p2pm/internal/p2pml"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// OpKind enumerates the operator kinds.
type OpKind int

// The operator kinds of the stream algebra.
const (
	OpAlerter    OpKind = iota // 0-ary event source at a monitored peer
	OpDynAlerter               // alerter set driven by a membership stream
	OpChannelIn                // subscription to an existing channel
	OpSelect                   // σ
	OpRestruct                 // Π
	OpUnion                    // ∪
	OpJoin                     // ⋈
	OpDistinct                 // duplicate removal
	OpGroup                    // windowed group/count
	OpPublish                  // publisher
	OpPartialAgg               // γp: aggregation-tree leaf (local pre-aggregation)
	OpMergeAgg                 // γm: aggregation-tree interior (partial-state merge)
)

var opNames = map[OpKind]string{
	OpAlerter: "Alerter", OpDynAlerter: "DynAlerter", OpChannelIn: "ChannelIn",
	OpSelect: "Select", OpRestruct: "Restructure", OpUnion: "Union",
	OpJoin: "Join", OpDistinct: "Distinct", OpGroup: "Group", OpPublish: "Publish",
	OpPartialAgg: "PartialAgg", OpMergeAgg: "MergeAgg",
}

func (k OpKind) String() string { return opNames[k] }

// opSymbols are the operators' symbols in String's algebra notation.
var opSymbols = map[OpKind]string{
	OpSelect: "σ", OpRestruct: "Π", OpUnion: "∪", OpJoin: "⋈",
	OpDistinct: "δ", OpGroup: "γ", OpPublish: "publisher", OpDynAlerter: "dyn",
	OpPartialAgg: "γp", OpMergeAgg: "γm",
}

// AnyPeer marks a generic (not yet placed) operator — the paper's s@any.
const AnyPeer = "any"

// Node is one operator of a monitoring plan.
type Node struct {
	Op     OpKind
	Peer   string // placement; AnyPeer until the optimizer assigns one
	Inputs []*Node
	// Schema lists the subscription variables bound by this node's
	// output items, in order. Single-variable streams carry the alert
	// tree itself; multi-variable streams carry <tuple> trees with one
	// <bind var="..."> child per variable.
	Schema []string

	Alerter  *AlerterSpec
	Select   *SelectSpec
	Restruct *RestructSpec
	Join     *JoinSpec
	Group    *GroupSpec
	Publish  *PublishSpec
	Channel  stream.Ref // for OpChannelIn: the provider actually consumed
	// Origin, for OpChannelIn nodes introduced by stream reuse, names the
	// *original* stream when Channel points at a replica. Descriptors are
	// always published against originals (Section 5).
	Origin stream.Ref
	// AggKey, for OpMergeAgg interiors of an aggregation tree, is the DHT
	// routing key that placed the node: failover and membership
	// rebalancing re-derive the host from it, so the tree shape follows
	// ring ownership instead of sticking to a first placement.
	AggKey string
	// Body, for WS alerters (OpAlerter, OpDynAlerter), says whether
	// their alerts carry the SOAP envelope (MarkBodyReaders). It is part
	// of the alerter's stream identity: Signature tells a body-carrying
	// alerter from a bare one.
	Body BodyMark
}

// AlerterSpec describes an event source.
type AlerterSpec struct {
	Func string // inCOM, outCOM, rssCOM, pageCOM, axmlCOM, areRegistered
	Kind string // resolved alerter kind (ws-in, ws-out, rss, ...)
	Peer string // the monitored peer ("local" resolves at deployment)
	Args []*xmltree.Node
}

// SelectSpec is a σ: a conjunction of conditions over the node's schema,
// with the LET bindings needed to evaluate them.
type SelectSpec struct {
	Conds []p2pml.Condition
	Lets  []p2pml.LetBinding
}

// RestructSpec is a Π: the RETURN clause of the subscription.
type RestructSpec struct {
	Template *p2pml.Template
	Expr     p2pml.Expr
	Lets     []p2pml.LetBinding
}

// JoinSpec is a ⋈ between the left input (Inputs[0]) and right input
// (Inputs[1]).
type JoinSpec struct {
	// LeftKey/RightKey, when set, form an equi-join predicate
	// LeftKey = RightKey usable with the history index.
	LeftKey, RightKey p2pml.Expr
	// Residual conditions are evaluated on each candidate pair.
	Residual []p2pml.Condition
	Lets     []p2pml.LetBinding
}

// GroupSpec configures a Group operator — and, in a decomposed
// aggregation tree, the PartialAgg leaves and MergeAgg interiors derived
// from it.
type GroupSpec struct {
	KeyAttr string
	Window  string // duration string; parsed at deployment
	// Fn names the aggregate function (a monoid registered in
	// internal/monoid: count, sum, min, max, avg, set, distinct, freq).
	// Empty means count, the historical default.
	Fn string
	// ValueAttr names the attribute the aggregate consumes; empty for
	// count.
	ValueAttr string
	// Final marks the MergeAgg root of an aggregation tree: it emits the
	// flat operator's <group> records instead of forwarding partials.
	Final bool
}

// Ident renders the aggregate's identity — function, value, key and
// window, independent of which sources feed it: "key/window" for count
// (keeping the historical rendering stable) and "fn(value):key/window"
// otherwise. Labels and signatures show it, and partial-aggregation
// streams of the same logical aggregate are indexed under it so
// containment queries (aggregate-tree sharing) find them in one lookup.
func (g *GroupSpec) Ident() string {
	if g.Fn == "" || g.Fn == "count" {
		return g.KeyAttr + "/" + g.Window
	}
	return g.Fn + "(" + g.ValueAttr + "):" + g.KeyAttr + "/" + g.Window
}

// FlatGroupSignature is the signature of a flat Group over a union of
// the given source streams. The Final root of a decomposed aggregation
// tree publishes under this identity: it emits exactly the records the
// flat operator would have, so later flat Group plans over the same
// source set match tree-deployed work without knowing the tree shape.
func FlatGroupSignature(g *GroupSpec, sourceSigs []string) string {
	union := (&Node{Op: OpUnion}).SignatureWith(sourceSigs)
	flat := &Node{Op: OpGroup, Group: g}
	return flat.SignatureWith([]string{union})
}

// PublishSpec lists the notification targets of the BY clause.
type PublishSpec struct {
	Targets []p2pml.ByTarget
	// ChannelID is the channel under which the result stream is
	// published (always present: even email/file publication flows
	// through a result channel so other tasks can reuse the stream).
	ChannelID string
}

// NewAlerter builds an alerter source node (placed at the monitored peer
// by definition).
func NewAlerter(fn, kind, peer, variable string, args []*xmltree.Node) *Node {
	return &Node{
		Op: OpAlerter, Peer: peer, Schema: []string{variable},
		Alerter: &AlerterSpec{Func: fn, Kind: kind, Peer: peer, Args: args},
	}
}

// Label renders the operator with its parameters, e.g. "σ[$c1.callee = ...]".
func (n *Node) Label() string {
	switch n.Op {
	case OpAlerter:
		return fmt.Sprintf("%s%s@%s", alerterShort(n.Alerter), n.bodySuffix(), n.Alerter.Peer)
	case OpDynAlerter:
		return fmt.Sprintf("dyn:%s%s", alerterShort(n.Alerter), n.bodySuffix())
	case OpChannelIn:
		return "chan:" + n.Channel.String()
	case OpSelect:
		return "σ[" + condString(n.Select.Conds) + "]"
	case OpRestruct:
		if n.Restruct.Expr != nil {
			return "Π[" + n.Restruct.Expr.String() + "]"
		}
		return "Π[template]"
	case OpUnion:
		return "∪"
	case OpJoin:
		if n.Join.LeftKey != nil {
			return fmt.Sprintf("⋈[%s = %s%s]", n.Join.LeftKey.String(), n.Join.RightKey.String(), residualSuffix(n.Join))
		}
		return "⋈[" + condString(n.Join.Residual) + "]"
	case OpDistinct:
		return "Distinct"
	case OpGroup, OpPartialAgg, OpMergeAgg:
		if n.Op == OpMergeAgg && n.Group.Final {
			return "γm![" + n.Group.Ident() + "]"
		}
		return opSymbols[n.Op] + "[" + n.Group.Ident() + "]"
	case OpPublish:
		parts := make([]string, len(n.Publish.Targets))
		for i, t := range n.Publish.Targets {
			parts[i] = t.String()
		}
		return "publisher[" + strings.Join(parts, "; ") + "]"
	}
	return n.Op.String()
}

func residualSuffix(j *JoinSpec) string {
	if len(j.Residual) == 0 {
		return ""
	}
	return "; " + condString(j.Residual)
}

func alerterShort(a *AlerterSpec) string {
	switch a.Kind {
	case "ws-in":
		return "in"
	case "ws-out":
		return "out"
	}
	return a.Func
}

func condString(conds []p2pml.Condition) string {
	parts := make([]string, len(conds))
	for i, c := range conds {
		parts[i] = c.String()
	}
	return strings.Join(parts, " and ")
}

// String renders the plan in the paper's nested algebra notation, e.g.
//
//	publisher@p(Π@meteo.com(⋈@meteo.com(∪@b.com(σ@a.com(out@a.com), ...), ...)))
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *Node) render(b *strings.Builder) {
	switch n.Op {
	case OpAlerter:
		b.WriteString(n.Label())
		return
	case OpChannelIn:
		b.WriteString("chan(" + n.Channel.String() + ")")
		return
	}
	b.WriteString(opSymbols[n.Op])
	if n.Op == OpDynAlerter {
		b.WriteString(n.bodySuffix())
	}
	b.WriteString("@")
	b.WriteString(n.Peer)
	b.WriteString("(")
	for i, in := range n.Inputs {
		if i > 0 {
			b.WriteString(", ")
		}
		in.render(b)
	}
	b.WriteString(")")
}

// Tree renders an indented multi-line view with full operator labels.
func (n *Node) Tree() string {
	var b strings.Builder
	n.tree(&b, 0)
	return b.String()
}

func (n *Node) tree(b *strings.Builder, depth int) {
	fmt.Fprintf(b, "%s%s @%s", strings.Repeat("  ", depth), n.Label(), n.Peer)
	if len(n.Schema) > 0 {
		fmt.Fprintf(b, "  vars=%v", n.Schema)
	}
	b.WriteByte('\n')
	for _, in := range n.Inputs {
		in.tree(b, depth+1)
	}
}

// Walk visits the plan tree bottom-up (inputs before node).
func (n *Node) Walk(fn func(*Node)) {
	for _, in := range n.Inputs {
		in.Walk(fn)
	}
	fn(n)
}

// Count returns the number of operators in the plan.
func (n *Node) Count() int {
	c := 0
	n.Walk(func(*Node) { c++ })
	return c
}

// Signature returns a placement-independent canonical description of the
// stream this node computes: operator parameters plus input signatures.
// Two nodes with equal signatures compute equivalent streams over the
// same sources, which is what the stream-reuse algorithm matches on.
func (n *Node) Signature() string {
	sigs := make([]string, len(n.Inputs))
	for i, in := range n.Inputs {
		sigs[i] = in.Signature()
	}
	return n.SignatureWith(sigs)
}

// SignatureWith renders the node's own operator description composed with
// explicit input signatures. Reuse and deployment use it to build
// signatures over *published* definitions, so a stream derived from a
// reused channel gets the same signature as one derived from the original
// computation.
//
// A signature names everything the node's evaluator reads (docs/REUSE.md
// "What a signature names"): σ conditions and ⋈ keys and residuals with
// their LETs inlined (canon.go), a Π's template or expression with the
// LETs it evaluates, a ⋈'s output variables, an alerter's function,
// peer, envelope and non-<p> arguments, and a dynamic alerter set's
// function, envelope and arguments. It normalizes the algebraic
// equivalences the system recognizes (a first answer to the paper's open
// "issue of stream equivalence"): condition order within σ and ⋈
// residuals, and input order of ∪, do not affect a stream's identity.
func (n *Node) SignatureWith(inputSigs []string) string {
	switch n.Op {
	case OpAlerter:
		// Alerters are bound to their monitored peer: the peer is part of
		// the identity of the source stream, and so is the envelope.
		return n.Alerter.Func + n.bodySuffix() + "(" + n.Alerter.Peer + signedArgs(n.Alerter.Args) + ")"
	case OpChannelIn:
		return "chan(" + n.Channel.String() + ")"
	case OpUnion:
		// ∪ is commutative: sort the input signatures so reordered unions
		// are detected as the same stream.
		inputSigs = append([]string(nil), inputSigs...)
		sort.Strings(inputSigs)
	}
	size := 32 // the operator's own description, typically
	for _, sig := range inputSigs {
		size += len(sig) + 1
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(n.Op.String())
	b.WriteString("{")
	switch n.Op {
	case OpSelect:
		b.WriteString(signedConds(n.Select.Conds, n.Select.Lets))
	case OpJoin:
		// The output variables name the tuples' bindings.
		b.WriteString(strings.Join(n.Schema, " ") + ":")
		if n.Join.LeftKey != nil {
			b.WriteString(canonExpr(n.Join.LeftKey, n.Join.Lets, "") + "=" + canonExpr(n.Join.RightKey, n.Join.Lets, ""))
		}
		if len(n.Join.Residual) > 0 {
			b.WriteString(";")
			b.WriteString(signedConds(n.Join.Residual, n.Join.Lets))
		}
	case OpRestruct:
		if n.Restruct.Expr != nil {
			b.WriteString(n.Restruct.Expr.String())
		} else {
			b.WriteString(n.Restruct.Template.String())
		}
		for i, l := range n.Restruct.Lets { // each evaluated, read or not
			b.WriteString(" let $" + l.Var + " := " + canonExpr(l.Expr, n.Restruct.Lets[:i], ""))
		}
	case OpGroup, OpPartialAgg:
		b.WriteString(n.Group.Ident())
	case OpMergeAgg:
		fmt.Fprintf(&b, "%s/final=%t", n.Group.Ident(), n.Group.Final)
	case OpDynAlerter:
		b.WriteString(n.Alerter.Func + n.bodySuffix() + signedArgs(n.Alerter.Args))
	}
	b.WriteString("}(")
	for i, sig := range inputSigs {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(sig)
	}
	b.WriteString(")")
	return b.String()
}

// Clone deep-copies the plan structure (specs are shared: they are
// immutable after compilation).
func (n *Node) Clone() *Node {
	cp := *n
	cp.Inputs = make([]*Node, len(n.Inputs))
	for i, in := range n.Inputs {
		cp.Inputs[i] = in.Clone()
	}
	cp.Schema = append([]string(nil), n.Schema...)
	return &cp
}
