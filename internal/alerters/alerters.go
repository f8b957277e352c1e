// Package alerters implements P2PM's event sources (Section 3.1): 0-ary
// operators placed on monitored peers that detect local events and
// produce streams of XML alerts. Each alert's root attributes carry the
// generic information that simple conditions test (call identifiers,
// timestamps, identities), while subtrees carry payloads such as SOAP
// envelopes — matching the two-part stream-item structure of Section 2.
package alerters

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"p2pm/internal/rss"
	"p2pm/internal/soap"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// Emit receives produced alerts.
type Emit func(stream.Item)

// Base carries the plumbing shared by all alerters.
type Base struct {
	mu    sync.Mutex
	name  string
	clock func() time.Duration
	emit  Emit
	seq   uint64
}

// NewBase wires an alerter core. clock may be nil (alerts are then
// stamped with zero time, useful in unit tests).
func NewBase(name string, clock func() time.Duration, emit Emit) Base {
	return Base{name: name, clock: clock, emit: emit}
}

// Name returns the alerter name.
func (b *Base) Name() string { return b.name }

// Produced returns the number of alerts emitted.
func (b *Base) Produced() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Emit stamps and emits one alert tree.
func (b *Base) Emit(tree *xmltree.Node) {
	b.mu.Lock()
	b.seq++
	seq := b.seq
	var now time.Duration
	if b.clock != nil {
		now = b.clock()
	}
	emit := b.emit
	b.mu.Unlock()
	if emit != nil {
		emit(stream.Item{Tree: tree, Seq: seq, Source: b.name, Time: now})
	}
}

// Close emits eos downstream.
func (b *Base) Close() {
	b.mu.Lock()
	emit := b.emit
	name := b.name
	b.mu.Unlock()
	if emit != nil {
		emit(stream.EOSItem(name))
	}
}

// seconds renders a duration as a decimal-seconds attribute value so that
// P2PML arithmetic like "$c1.responseTimestamp - $c1.callTimestamp" works
// numerically.
func seconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'f', 3, 64)
}

// endpointURL renders a peer identity as its service endpoint URL.
func endpointURL(peer string) string {
	if strings.HasPrefix(peer, "http://") || strings.HasPrefix(peer, "https://") {
		return peer
	}
	return "http://" + peer
}

// Direction selects which side of a Web service call a WS alerter
// observes.
type Direction int

// The two WS alerter kinds of the paper's FOR clause.
const (
	Inbound  Direction = iota // inCOM: calls received by the peer
	Outbound                  // outCOM: calls issued by the peer
)

func (d Direction) String() string {
	if d == Inbound {
		return "inCOM"
	}
	return "outCOM"
}

// WS is the Web service alerter: it intercepts inbound or outbound SOAP
// calls (an Axis handler in the paper) and produces alerts that include
// the SOAP envelope expanded with annotations — timestamps and
// caller/callee identifiers.
type WS struct {
	Base
	dir             Direction
	includeEnvelope bool
}

// NewWS builds a WS alerter. includeEnvelope controls whether the full
// SOAP envelope is embedded in each alert (it dominates alert size, which
// matters for the pushdown experiments).
func NewWS(name string, dir Direction, includeEnvelope bool, clock func() time.Duration, emit Emit) *WS {
	return &WS{Base: NewBase(name, clock, emit), dir: dir, includeEnvelope: includeEnvelope}
}

// Direction returns the observed direction.
func (w *WS) Direction() Direction { return w.dir }

// Hook returns the soap.Hook to attach to an endpoint (OnInbound for
// inCOM, OnOutbound for outCOM).
func (w *WS) Hook() soap.Hook {
	return func(x soap.Exchange) { w.Emit(w.alert(x)) }
}

func (w *WS) alert(x soap.Exchange) *xmltree.Node {
	n := xmltree.Elem("alert")
	n.Attrs = make([]xmltree.Attr, 0, 8) // type … responseTimestamp, fault
	if w.dir == Inbound {
		n.SetAttr("type", "ws-in")
	} else {
		n.SetAttr("type", "ws-out")
	}
	n.SetAttr("callId", x.CallID)
	n.SetAttr("callMethod", x.Method)
	// Caller/callee identities are annotated as endpoint URLs (the Axis
	// form the paper's conditions compare against, e.g. the Figure 1
	// condition $c1.callee = "http://meteo.com").
	n.SetAttr("caller", endpointURL(x.Caller))
	n.SetAttr("callee", endpointURL(x.Callee))
	n.SetAttr("callTimestamp", seconds(x.CallTime))
	n.SetAttr("responseTimestamp", seconds(x.ResponseTime))
	if x.Fault != "" {
		n.SetAttr("fault", x.Fault)
	}
	if w.includeEnvelope {
		n.Append(x.Envelope())
	}
	return n
}

// RSS is the RSS feed alerter: it polls a feed, diffs snapshots, and
// emits one alert per entry-level change with add/remove/modify
// semantics.
type RSS struct {
	Base
	url   string
	fetch func() (*rss.Feed, error)
	last  *rss.Feed
}

// NewRSS builds an RSS alerter polling the given fetch function.
func NewRSS(name, url string, fetch func() (*rss.Feed, error), clock func() time.Duration, emit Emit) *RSS {
	return &RSS{Base: NewBase(name, clock, emit), url: url, fetch: fetch}
}

// Poll fetches the feed, emits alerts for every change since the previous
// snapshot, and returns the number of alerts emitted. The first poll
// establishes the baseline without alerting (there is no previous
// snapshot to compare against).
func (r *RSS) Poll() (int, error) {
	f, err := r.fetch()
	if err != nil {
		return 0, fmt.Errorf("alerters: rss poll %s: %w", r.url, err)
	}
	if r.last == nil {
		r.last = f.Clone()
		return 0, nil
	}
	changes := rss.Diff(r.last, f)
	for _, c := range changes {
		n := xmltree.Elem("alert")
		n.SetAttr("type", "rss")
		n.SetAttr("feed", r.url)
		n.SetAttr("change", string(c.Kind))
		n.SetAttr("entryId", c.Entry.ID)
		n.Append(xmltree.Elem("item",
			xmltree.ElemText("guid", c.Entry.ID),
			xmltree.ElemText("title", c.Entry.Title),
			xmltree.ElemText("description", c.Entry.Content)))
		r.Emit(n)
	}
	r.last = f.Clone()
	return len(changes), nil
}

// WebPage is the Web page alerter: it detects changes in XML/XHTML pages
// by comparing snapshots, optionally including the delta between the two
// pages.
type WebPage struct {
	Base
	url          string
	fetch        func() (*xmltree.Node, error)
	includeDelta bool
	last         *xmltree.Node
}

// NewWebPage builds a page alerter.
func NewWebPage(name, url string, fetch func() (*xmltree.Node, error), includeDelta bool, clock func() time.Duration, emit Emit) *WebPage {
	return &WebPage{Base: NewBase(name, clock, emit), url: url, fetch: fetch, includeDelta: includeDelta}
}

// Poll fetches the page and emits one alert if it changed since the last
// snapshot. The first poll establishes the baseline.
func (w *WebPage) Poll() (bool, error) {
	page, err := w.fetch()
	if err != nil {
		return false, fmt.Errorf("alerters: page poll %s: %w", w.url, err)
	}
	if w.last == nil {
		w.last = page.Clone()
		return false, nil
	}
	if w.last.Canonical() == page.Canonical() {
		return false, nil
	}
	n := xmltree.Elem("alert")
	n.SetAttr("type", "webpage")
	n.SetAttr("url", w.url)
	if w.includeDelta {
		n.Append(pageDelta(w.last, page))
	}
	w.last = page.Clone()
	w.Emit(n)
	return true, nil
}

// pageDelta computes a top-level-children delta between two snapshots:
// subtrees present only in the old page land under <removed>, subtrees
// present only in the new page under <added>.
func pageDelta(old, new *xmltree.Node) *xmltree.Node {
	oldSet := make(map[string]int)
	for _, c := range old.Children {
		oldSet[c.Canonical()]++
	}
	newSet := make(map[string]int)
	for _, c := range new.Children {
		newSet[c.Canonical()]++
	}
	delta := xmltree.Elem("delta")
	removed := xmltree.Elem("removed")
	for _, c := range old.Children {
		key := c.Canonical()
		if newSet[key] == 0 {
			removed.Append(c.Clone())
		} else {
			newSet[key]--
		}
	}
	added := xmltree.Elem("added")
	for _, c := range new.Children {
		key := c.Canonical()
		if oldSet[key] == 0 {
			added.Append(c.Clone())
		} else {
			oldSet[key]--
		}
	}
	if len(removed.Children) > 0 {
		delta.Append(removed)
	}
	if len(added.Children) > 0 {
		delta.Append(added)
	}
	return delta
}

// Crawler drives a collection of WebPage alerters — the paper's
// "auxiliary Web crawler for the surveillance of collections of Web
// pages".
type Crawler struct {
	mu    sync.Mutex
	pages map[string]*WebPage
}

// NewCrawler returns an empty crawler.
func NewCrawler() *Crawler { return &Crawler{pages: make(map[string]*WebPage)} }

// Watch adds a page alerter under its URL.
func (c *Crawler) Watch(w *WebPage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pages[w.url] = w
}

// PollAll polls every watched page and returns how many changed. The
// first error is returned but remaining pages are still polled.
func (c *Crawler) PollAll() (int, error) {
	c.mu.Lock()
	pages := make([]*WebPage, 0, len(c.pages))
	for _, w := range c.pages {
		pages = append(pages, w)
	}
	c.mu.Unlock()
	changed := 0
	var firstErr error
	for _, w := range pages {
		ok, err := w.Poll()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if ok {
			changed++
		}
	}
	return changed, firstErr
}

// Membership is the DHT membership alerter: it exports the stream of
// peers joining and leaving in exactly the paper's format:
//
//	<p-join>a.com</p-join>
//	<p-leave>a.com</p-leave>
type Membership struct {
	Base
}

// NewMembership builds a membership alerter (the areRegistered source).
func NewMembership(name string, clock func() time.Duration, emit Emit) *Membership {
	return &Membership{Base: NewBase(name, clock, emit)}
}

// NotifyJoin emits a p-join event.
func (m *Membership) NotifyJoin(peer string) {
	m.Emit(xmltree.ElemText("p-join", peer))
}

// NotifyLeave emits a p-leave event.
func (m *Membership) NotifyLeave(peer string) {
	m.Emit(xmltree.ElemText("p-leave", peer))
}
