// Package p2pml implements the Peer-to-Peer Monitor Language of Section 2:
// a declarative subscription language with FOR / LET / WHERE / RETURN / BY
// clauses, XQuery-flavoured syntax, dot notation for root-attribute
// conditions, nested subscriptions, and curly-brace-guarded expressions in
// the RETURN template.
package p2pml

import (
	"fmt"
	"strings"

	"p2pm/internal/xmltree"
	"p2pm/internal/xpath"
)

// Subscription is a parsed P2PML statement.
type Subscription struct {
	For    []ForBinding
	Let    []LetBinding
	Where  []Condition
	Return *ReturnClause
	// Group, when present, aggregates the RETURN stream: one count per
	// distinct value of an output-root attribute per time window. This
	// is an extension clause exposing the paper's Group processor, which
	// the original language leaves without syntax.
	Group *GroupClause
	By    []ByTarget
	// Source preserves the original text for explain output.
	Source string
	// bodyEnd is where Body ends in Source: after the last token before
	// the BY clause, or before the closing ";" when there is none.
	bodyEnd int
}

// Body returns the subscription's text before its BY clause, without the
// blanks and comments that precede BY: everything the plan below the
// publisher is compiled from. Two subscriptions that differ only in BY
// share it. It is a prefix of Source, empty for a Subscription Parse did
// not return.
func (s *Subscription) Body() string {
	if s.bodyEnd > len(s.Source) {
		return ""
	}
	return s.Source[:s.bodyEnd]
}

// GroupClause is the extension "group [fn [of "value"]] on "attr"
// window "1m"". Without a function name it counts, the historical
// default; otherwise fn names a registered aggregate monoid (sum, min,
// max, avg, set, distinct, freq) and "of" names the output-root
// attribute whose values are aggregated.
type GroupClause struct {
	// Attr is the output-root attribute whose values key the groups.
	Attr string
	// Window is a Go duration string ("30s", "1m").
	Window string
	// Fn is the aggregate function name; empty means count.
	Fn string
	// ValueAttr is the aggregated attribute (empty for count).
	ValueAttr string
}

func (g *GroupClause) String() string {
	switch {
	case g.Fn == "":
		return fmt.Sprintf("group on %s window %s", xpath.Quote(g.Attr), xpath.Quote(g.Window))
	case g.ValueAttr == "":
		return fmt.Sprintf("group %s on %s window %s", g.Fn, xpath.Quote(g.Attr), xpath.Quote(g.Window))
	}
	return fmt.Sprintf("group %s of %s on %s window %s", g.Fn, xpath.Quote(g.ValueAttr), xpath.Quote(g.Attr), xpath.Quote(g.Window))
}

// ForBinding binds a variable to a stream source.
type ForBinding struct {
	Var    string
	Source Source
}

// Source is a stream source in a FOR clause.
type Source interface {
	isSource()
	String() string
}

// AlerterSource is an alerter function call: outCOM(<p>http://a.com</p>),
// inCOM($j), areRegistered(<p>s.com/dht</p>), rssCOM(...), etc.
type AlerterSource struct {
	Func string
	// Peers lists the statically named monitored peers (one <p> element
	// each, scheme prefix stripped).
	Peers []string
	// StreamVar, when non-empty, makes the monitored peer set dynamic:
	// it is fed by another FOR variable's stream of p-join/p-leave
	// events (the inCOM($j) form).
	StreamVar string
	// Args keeps any non-<p> XML arguments verbatim.
	Args []*xmltree.Node
}

func (*AlerterSource) isSource() {}

func (s *AlerterSource) String() string {
	var parts []string
	for _, p := range s.Peers {
		parts = append(parts, "<p>"+p+"</p>")
	}
	if s.StreamVar != "" {
		parts = append(parts, "$"+s.StreamVar)
	}
	for _, a := range s.Args {
		parts = append(parts, a.String())
	}
	return s.Func + "(" + strings.Join(parts, " ") + ")"
}

// NestedSource is a parenthesized inner subscription:
// for $x in ( for $y in ... ) ...
type NestedSource struct {
	Sub *Subscription
}

func (*NestedSource) isSource() {}

func (s *NestedSource) String() string { return "( " + s.Sub.String() + " )" }

// ChannelSource consumes an already-published channel: channel("s@peer").
type ChannelSource struct {
	Ref string // "streamID@peerID"
}

func (*ChannelSource) isSource() {}

func (s *ChannelSource) String() string { return "channel(" + xpath.Quote(s.Ref) + ")" }

// LetBinding defines a derived variable.
type LetBinding struct {
	Var  string
	Expr Expr
}

// Condition is one conjunct of the WHERE clause.
type Condition interface {
	isCondition()
	String() string
	// Vars returns the stream/let variables the condition references.
	Vars() []string
}

// CmpCond compares two expressions.
type CmpCond struct {
	Left  Expr
	Op    xpath.CmpOp
	Right Expr
}

func (*CmpCond) isCondition() {}

func (c *CmpCond) String() string {
	return fmt.Sprintf("%s %s %s", c.Left.String(), c.Op.String(), c.Right.String())
}

// Vars implements Condition.
func (c *CmpCond) Vars() []string { return append(c.Left.Vars(), c.Right.Vars()...) }

// PathCond is a bare tree-pattern existence condition: $c1//c/d.
type PathCond struct {
	Var  string
	Path *xpath.Path
}

func (*PathCond) isCondition() {}

func (c *PathCond) String() string { return "$" + c.Var + pathSuffix(c.Path) }

// Vars implements Condition.
func (c *PathCond) Vars() []string { return []string{c.Var} }

func pathSuffix(p *xpath.Path) string {
	s := p.String()
	if !strings.HasPrefix(s, "/") {
		return "/" + s
	}
	return s
}

// ReturnClause specifies the output stream: either a bare expression
// (return $e) or an XML template with {expr} holes, optionally
// duplicate-free.
type ReturnClause struct {
	Distinct bool
	Expr     Expr      // set for "return $e" style
	Template *Template // set for XML templates
}

func (r *ReturnClause) String() string {
	var b strings.Builder
	b.WriteString("return ")
	if r.Distinct {
		b.WriteString("distinct ")
	}
	if r.Expr != nil {
		b.WriteString(r.Expr.String())
	} else {
		b.WriteString(r.Template.String())
	}
	return b.String()
}

// ByKind classifies the notification targets of the BY clause.
type ByKind int

// The supported BY targets.
const (
	ByPublishChannel ByKind = iota // publish as channel "name"
	ByChannel                      // channel X (local task form)
	BySubscribe                    // subscribe(peer, #X, X)
	ByEmail                        // email "addr"
	ByFile                         // file "name"
	ByRSS                          // rss "title"
)

// ByTarget is one notification target.
type ByTarget struct {
	Kind ByKind
	// Name is the channel name / address / file name / feed title.
	Name string
	// Peer and ChannelID apply to BySubscribe: subscribe(peer, #id, name).
	Peer      string
	ChannelID string
}

func (t ByTarget) String() string {
	switch t.Kind {
	case ByPublishChannel:
		return "publish as channel " + xpath.Quote(t.Name)
	case ByChannel:
		return "channel " + t.Name
	case BySubscribe:
		return fmt.Sprintf("subscribe(%s, #%s, %s)", t.Peer, t.ChannelID, t.Name)
	case ByEmail:
		return "email " + xpath.Quote(t.Name)
	case ByFile:
		return "file " + xpath.Quote(t.Name)
	case ByRSS:
		return "rss " + xpath.Quote(t.Name)
	}
	return "?"
}

// String renders the subscription in canonical P2PML.
func (s *Subscription) String() string {
	var b strings.Builder
	b.WriteString("for ")
	for i, f := range s.For {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "$%s in %s", f.Var, f.Source.String())
	}
	for _, l := range s.Let {
		fmt.Fprintf(&b, " let $%s := %s", l.Var, l.Expr.String())
	}
	if len(s.Where) > 0 {
		b.WriteString(" where ")
		for i, c := range s.Where {
			if i > 0 {
				b.WriteString(" and ")
			}
			b.WriteString(c.String())
		}
	}
	if s.Return != nil {
		b.WriteString(" ")
		b.WriteString(s.Return.String())
	}
	if s.Group != nil {
		b.WriteString(" ")
		b.WriteString(s.Group.String())
	}
	if len(s.By) > 0 {
		b.WriteString(" by ")
		for i, t := range s.By {
			if i > 0 {
				b.WriteString(" and ")
			}
			b.WriteString(t.String())
		}
	}
	return b.String()
}
