// Package alerters implements P2PM's event sources (Section 3.1): 0-ary
// operators placed on monitored peers that detect local events and
// produce streams of XML alerts. Each alert's root attributes carry the
// generic information that simple conditions test (call identifiers,
// timestamps, identities), while subtrees carry payloads such as SOAP
// envelopes — matching the two-part stream-item structure of Section 2.
//
// The WS alerter is one interception point per monitored endpoint and
// direction (the paper's one Axis handler per peer): a Tap is the single
// soap.Hook; each exchange's alert is built once, off the monitored call,
// and the same immutable tree handed to every WS attached to it, so what
// a monitored call costs at its source does not grow with the
// subscriptions watching it.
package alerters

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2pm/internal/operators"
	"p2pm/internal/rss"
	"p2pm/internal/soap"
	"p2pm/internal/stream"
	"p2pm/internal/telemetry"
	"p2pm/internal/xmltree"
)

// Emit receives produced alerts.
type Emit func(stream.Item)

// Base carries the plumbing shared by all alerters. Name, clock and emit
// are fixed at construction; the sequence number is the only state, so
// numbering an alert is one atomic add.
type Base struct {
	name  string
	clock func() time.Duration
	emit  Emit
	seq   atomic.Uint64
}

// NewBase wires an alerter core. clock may be nil (alerts are then
// stamped with zero time, useful in unit tests).
func NewBase(name string, clock func() time.Duration, emit Emit) Base {
	return Base{name: name, clock: clock, emit: emit}
}

// Name returns the alerter name.
func (b *Base) Name() string { return b.name }

// Produced returns the number of alerts emitted.
func (b *Base) Produced() uint64 { return b.seq.Load() }

// Emit stamps and emits one alert tree.
func (b *Base) Emit(tree *xmltree.Node) {
	var now time.Duration
	if b.clock != nil {
		now = b.clock()
	}
	b.emitAt(tree, now)
}

// emitAt numbers and emits one alert detected at now.
func (b *Base) emitAt(tree *xmltree.Node, now time.Duration) {
	seq := b.seq.Add(1)
	if b.emit != nil {
		b.emit(stream.Item{Tree: tree, Seq: seq, Source: b.name, Time: now})
	}
}

// Close emits eos downstream.
func (b *Base) Close() {
	if b.emit != nil {
		b.emit(stream.EOSItem(b.name))
	}
}

// appendSeconds appends a duration as a decimal-seconds attribute value so
// that P2PML arithmetic like "$c1.responseTimestamp - $c1.callTimestamp"
// works numerically. The bytes are those of
// strconv.FormatFloat(d.Seconds(), 'f', 3, 64), computed with integer
// arithmetic: below 2^53 ns the float64 that Seconds returns lies within
// 1 ns of the true value (one rounding of a fraction below 1, one of a
// sum below 2^24 whose ulp is 2^-29 s), so unless the sub-millisecond
// remainder is within 1 µs of the half-millisecond tie both round to the
// same millisecond. Ties, negatives and larger values take AppendFloat.
func appendSeconds(dst []byte, d time.Duration) []byte {
	const tie, guard = time.Millisecond / 2, time.Microsecond
	rem := d % time.Millisecond
	if d < 0 || d >= 1<<53 || (rem >= tie-guard && rem <= tie+guard) {
		return strconv.AppendFloat(dst, d.Seconds(), 'f', 3, 64)
	}
	ms := uint64(d / time.Millisecond)
	if rem > tie {
		ms++
	}
	dst = strconv.AppendUint(dst, ms/1000, 10)
	ms %= 1000
	return append(dst, '.', byte('0'+ms/100), byte('0'+ms/10%10), byte('0'+ms%10))
}

// appendURL appends a peer identity as its service endpoint URL.
func appendURL(dst []byte, peer string) []byte {
	if !strings.HasPrefix(peer, "http://") && !strings.HasPrefix(peer, "https://") {
		dst = append(dst, "http://"...)
	}
	return append(dst, peer...)
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

// WS is the Web service alerter: it receives the alerts of one Tap —
// intercepted inbound or outbound SOAP calls (an Axis handler in the
// paper), annotated with timestamps and caller/callee identifiers, each
// including the SOAP envelope when the alerter was attached with it — and
// numbers them on its own stream.
type WS struct {
	Base
	dir             Direction
	includeEnvelope bool
}

// NewWS builds a stand-alone WS alerter, a tap of one. includeEnvelope
// controls whether the full SOAP envelope is embedded in each alert (it
// dominates alert size, which matters for the pushdown experiments).
func NewWS(name string, dir Direction, includeEnvelope bool, clock func() time.Duration, emit Emit) *WS {
	return &WS{Base: NewBase(name, clock, emit), dir: dir, includeEnvelope: includeEnvelope}
}

// Direction returns the observed direction.
func (w *WS) Direction() Direction { return w.dir }

// Hook returns the soap.Hook to attach to an endpoint (OnInbound for
// inCOM, OnOutbound for outCOM).
func (w *WS) Hook() soap.Hook {
	t := NewTap("", w.dir, w.clock)
	t.attach(w)
	return t.Hook()
}

// Tap is the interception point of one endpoint direction. On the
// monitored call its hook only captures the exchange and the time into a
// ring; the tapped peer's event loop fires it: builds the exchange's alert
// once (per envelope flavour in use) and emits that one tree through every
// attached WS in attach order — published trees are immutable
// (docs/DATAPATH.md), so the streams share it. What the call pays is one
// enqueue, whatever is attached. A tap built without a loop (RunOn) fires
// on the call itself.
//
// Detach is a barrier: it fires everything captured so far before the
// alerter leaves the attach list, so a call that returned before the
// detach began is delivered to it and a call made after it returned is
// not. The list is copy-on-write; Fire loads it without locking.
type Tap struct {
	dir   Direction
	peer  string // the tapped endpoint's peer; "" when not known
	url   string // appendURL(peer), rendered once
	clock func() time.Duration

	// mu serializes attach, detach and whoever empties the ring: a step of
	// the loop, or a detach.
	mu       sync.Mutex
	attached atomic.Pointer[[]*WS]

	// loop steps the tap on the tapped peer's executor, which the tap
	// holds while anything is attached; nil for a stand-alone tap.
	loop   *operators.Task
	ringMu sync.Mutex
	ring   stream.Ring[captured]

	// built counts the alerts Fire built, bare and with the envelope.
	built [2]telemetry.Counter
}

// captured is one exchange waiting for the loop, with the time its call
// returned.
type captured struct {
	x   soap.Exchange
	now time.Duration
}

// NewTap builds the tap of peer's endpoint in one direction; register
// its Hook there once. clock may be nil (alerts are stamped zero).
func NewTap(peer string, dir Direction, clock func() time.Duration) *Tap {
	return &Tap{dir: dir, peer: peer, url: string(appendURL(nil, peer)), clock: clock}
}

// RunOn makes ex — the tapped peer's loop — fire what the hook captures.
// Call it before the hook is registered.
func (t *Tap) RunOn(ex *operators.Executor) { t.loop = ex.NewTask(t.step) }

// Attach adds a WS alerter reporting to emit and returns its detach,
// after which the tap holds no reference to it. Detaching does not emit
// eos: the caller closes its stream once detached.
func (t *Tap) Attach(name string, includeEnvelope bool, emit Emit) (detach func()) {
	return t.attach(NewWS(name, t.dir, includeEnvelope, t.clock, emit))
}

func (t *Tap) attach(w *WS) (detach func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.list()
	if len(cur) == 0 && t.loop != nil {
		t.loop.Hold()
	}
	next := append(cur[:len(cur):len(cur)], w)
	t.attached.Store(&next)
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		for more := true; more; {
			_, more = t.drain()
		}
		cur := t.list()
		for i, a := range cur {
			if a == w {
				next := append(cur[:i:i], cur[i+1:]...)
				t.attached.Store(&next)
				if len(next) == 0 && t.loop != nil {
					t.loop.Release()
				}
				return
			}
		}
	}
}

func (t *Tap) list() []*WS {
	if p := t.attached.Load(); p != nil {
		return *p
	}
	return nil
}

// Attached reports how many alerters the tap currently feeds.
func (t *Tap) Attached() int { return len(t.list()) }

// Hook returns the tap's soap.Hook (OnInbound for inCOM, OnOutbound for
// outCOM). With nothing attached it captures nothing.
func (t *Tap) Hook() soap.Hook {
	return func(x soap.Exchange) {
		if len(t.list()) == 0 {
			return
		}
		var now time.Duration
		if t.clock != nil {
			now = t.clock()
		}
		if t.loop == nil {
			t.Fire(x, now)
			return
		}
		t.ringMu.Lock()
		t.ring.Push(captured{x, now})
		first := t.ring.Len() == 1
		t.ringMu.Unlock()
		if first {
			t.loop.Wake()
		}
	}
}

// step is the tap's turn on the loop.
func (t *Tap) step() (more bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, more := t.drain()
	t.loop.Handled(n)
	return more
}

// drain fires up to one step's budget of captured exchanges, oldest first.
func (t *Tap) drain() (n int, more bool) {
	for ; n < operators.StepBudget; n++ {
		t.ringMu.Lock()
		c, ok := t.ring.Pop()
		t.ringMu.Unlock()
		if !ok {
			return n, false
		}
		t.Fire(c.x, c.now)
	}
	return n, true
}

// Ring returns how many captured exchanges wait for the loop, and the
// most that ever did.
func (t *Tap) Ring() (depth, highWater int) {
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	return t.ring.Len(), t.ring.HighWater()
}

// Built returns how many alerts the tap built without the envelope and
// with it: one per exchange and flavour in use, however many alerters
// share it.
func (t *Tap) Built() (bare, body uint64) { return t.built[0].Value(), t.built[1].Value() }

// Instrument exports the counts Built reads — the same variables — on reg
// as tap_alerts_total with the given labels, told apart by a body label.
func (t *Tap) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	for i, body := range []string{"false", "true"} {
		reg.Attach("tap_alerts_total", &t.built[i], append(labels[:len(labels):len(labels)], telemetry.L("body", body))...)
	}
}

// Fire builds the alert of an exchange whose call returned at now and
// emits it through every attached alerter.
func (t *Tap) Fire(x soap.Exchange, now time.Duration) {
	var trees [2]*xmltree.Node // without and with the envelope
	for _, w := range t.list() {
		i := 0
		if w.includeEnvelope {
			i = 1
		}
		if trees[i] == nil {
			trees[i] = t.alert(x, w.includeEnvelope)
			t.built[i].Inc()
		}
		w.emitAt(trees[i], now)
	}
}

func (t *Tap) alert(x soap.Exchange, includeEnvelope bool) *xmltree.Node {
	own := 7 // type … responseTimestamp
	if x.Fault != "" {
		own++
	}
	nodes, attrs, kids := 1, own, 0
	if includeEnvelope {
		en, ea := x.EnvelopeSize()
		nodes, attrs, kids = nodes+en, attrs+ea, 1
	}
	// The strings the alert renders — the other side's URL, both
	// timestamps, the result's label — are appended to one buffer and cut
	// from one string: with the builder's chunks, four allocations.
	var raw [128]byte
	buf := t.appendOther(raw[:0], x.Caller)
	callee := len(buf)
	buf = t.appendOther(buf, x.Callee)
	called := len(buf)
	buf = appendSeconds(buf, x.CallTime)
	responded := len(buf)
	buf = appendSeconds(buf, x.ResponseTime)
	label := len(buf)
	if includeEnvelope && x.Result != nil {
		buf = append(append(buf, x.Method...), "Response"...)
	}
	str := string(buf)

	b := xmltree.NewBuilder(nodes, attrs)
	n := b.Elem("alert", own, kids)
	if t.dir == Inbound {
		n.SetAttr("type", "ws-in")
	} else {
		n.SetAttr("type", "ws-out")
	}
	n.SetAttr("callId", x.CallID)
	n.SetAttr("callMethod", x.Method)
	// Caller/callee identities are annotated as endpoint URLs (the Axis
	// form the paper's conditions compare against, e.g. the Figure 1
	// condition $c1.callee = "http://meteo.com").
	n.SetAttr("caller", t.ownOr(str[:callee]))
	n.SetAttr("callee", t.ownOr(str[callee:called]))
	n.SetAttr("callTimestamp", str[called:responded])
	n.SetAttr("responseTimestamp", str[responded:label])
	if x.Fault != "" {
		n.SetAttr("fault", x.Fault)
	}
	if includeEnvelope {
		n.Append(x.Envelope(&b, str[label:]))
	}
	return n
}

// appendOther appends a peer's URL unless it is the tapped peer — the
// callee of every inbound exchange, the caller of every outbound one —
// whose URL the tap rendered once.
func (t *Tap) appendOther(dst []byte, peer string) []byte {
	if peer == t.peer {
		return dst
	}
	return appendURL(dst, peer)
}

// ownOr is the URL appendOther rendered, or the tap's own for none.
func (t *Tap) ownOr(url string) string {
	if url == "" {
		return t.url
	}
	return url
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
