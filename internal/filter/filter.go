package filter

import (
	"fmt"
	"sync"
	"sync/atomic"

	"p2pm/internal/xmltree"
	"p2pm/internal/xpath"
)

// Subscription is a filtering subscription in the sense of Section 4: a
// conjunction of simple conditions on root attributes plus zero or more
// complex tree-pattern queries. A subscription with no complex part is
// *simple*; otherwise it is *complex*.
type Subscription struct {
	ID      string
	Simple  []Cond
	Complex []*xpath.Path
}

// IsSimple reports whether the subscription has no complex part.
func (s Subscription) IsSimple() bool { return len(s.Complex) == 0 }

// Mode selects the matching strategy, primarily for the C2 ablation.
type Mode int

const (
	// ModeTwoStage is the paper's design: preFilter + AES first, then a
	// YFilter pruned to the active complex subscriptions.
	ModeTwoStage Mode = iota
	// ModeYFilterOnly skips the simple-condition stages: every complex
	// query runs through the (unpruned) YFilter and simple conditions are
	// checked afterwards, per candidate.
	ModeYFilterOnly
	// ModeNaive evaluates every subscription independently against the
	// document: linear in the number of subscriptions.
	ModeNaive
)

func (m Mode) String() string {
	switch m {
	case ModeTwoStage:
		return "two-stage"
	case ModeYFilterOnly:
		return "yfilter-only"
	case ModeNaive:
		return "naive"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Materializer resolves ActiveXML service calls inside a document before
// complex matching; it returns the number of calls performed. It is
// invoked only when some complex subscription is still active — this is
// the lazy strategy of Section 4 that "avoids the unnecessary call to
// service storage@site". The document belongs to the filter only for the
// call and must not be kept: MatchSerialized parses it into memory that
// the next match reuses.
type Materializer func(*xmltree.Node) (int, error)

// Stats are cumulative counters over all matched documents.
type Stats struct {
	Docs            uint64 // documents processed
	PreFilterEvals  uint64 // preFilter index probes plus scanned conditions
	AESProbes       uint64 // hash-tree probes
	YFilterRuns     uint64 // documents that reached the YFilter stage
	YFilterSkips    uint64 // documents rejected before the YFilter stage
	NFATransitions  uint64 // transitions taken inside YFilter
	DirectEvals     uint64 // conditions and tree patterns evaluated one by one, outside the indexes and the NFA
	ServiceCalls    uint64 // ActiveXML materialization calls
	BodiesParsed    uint64 // MatchSerialized: documents fully parsed
	BodiesSkipped   uint64 // MatchSerialized: first-tag-only documents
	MatchesReported uint64 // total subscription matches emitted
	Compactions     uint64 // times Add/Remove garbage was reclaimed
}

type sub struct {
	Subscription
	handle  int   // registration rank: matches are reported in handle order
	seq     []int // ascending simple-condition IDs
	pathIDs []int // YFilter query IDs of the linear complex queries
	direct  []*xpath.Path
}

// directEvalThreshold bounds the "virtually pruned" fast path: when the
// active complex-query set is at most this large (and a small fraction of
// all registered queries), the filter evaluates the active tree patterns
// directly instead of running the shared NFA — the per-document pruning
// Section 4 describes. Dense active sets still use the shared automaton,
// which amortizes across queries.
const directEvalThreshold = 16

// Filter is the multi-subscription stream filter of Section 4 (Figure 5):
// preFilter → AESFilter → YFilterσ, with lazy ActiveXML materialization.
// Subscriptions can be added and removed at run time. Add and Remove
// adjust the three structures in place, beside matching (the "offline
// adjustment" dotted path of Figure 5), at a cost set by the subscription
// they touch; what they retire — handles, condition IDs, NFA state and
// query IDs — is reclaimed by compact once it outweighs what is live.
type Filter struct {
	mu   sync.RWMutex
	subs map[string]*sub

	reg          *condRegistry
	aes          *AES
	yf           *YFilter
	byHandle     []*sub        // nil where the subscription left
	alwaysActive []*sub        // complex subscriptions with no simple conditions
	pathByQID    []*xpath.Path // nil where the query left
	retired      int           // subscriptions removed or replaced since the last compaction

	materializer Materializer

	stats struct {
		docs, preEvals, aesProbes, yfRuns, yfSkips  atomic.Uint64
		nfaTrans, direct, svcCalls, parsed, skipped atomic.Uint64
		outs, compactions                           atomic.Uint64
	}
}

// New returns an empty filter.
func New() *Filter {
	f := &Filter{subs: make(map[string]*sub)}
	f.reset()
	return f
}

// reset empties the matching structures. Callers hold f.mu.
func (f *Filter) reset() {
	f.reg = newCondRegistry()
	f.aes = NewAES()
	f.yf = NewYFilter()
	f.byHandle = nil
	f.alwaysActive = nil
	f.pathByQID = nil
	f.retired = 0
}

// SetMaterializer installs the ActiveXML materialization hook.
func (f *Filter) SetMaterializer(m Materializer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.materializer = m
}

// Add registers a subscription. Adding an ID that already exists replaces
// the previous definition, which keeps its place in the reporting order.
func (f *Filter) Add(s Subscription) error {
	if s.ID == "" {
		return fmt.Errorf("filter: subscription needs an ID")
	}
	if len(s.Simple) == 0 && len(s.Complex) == 0 {
		return fmt.Errorf("filter: subscription %s has no conditions", s.ID)
	}
	for _, c := range s.Simple {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("subscription %s: %w", s.ID, err)
		}
	}
	for _, p := range s.Complex {
		if p == nil || len(p.Steps) == 0 {
			return fmt.Errorf("filter: subscription %s has an empty complex query", s.ID)
		}
	}
	s.Simple = append([]Cond(nil), s.Simple...)
	s.Complex = append([]*xpath.Path(nil), s.Complex...)
	f.mu.Lock()
	defer f.mu.Unlock()
	handle := len(f.byHandle)
	if old := f.subs[s.ID]; old != nil {
		handle = old.handle
		f.unlink(old)
	} else {
		f.byHandle = append(f.byHandle, nil)
	}
	f.link(s, handle)
	f.compactIfDue()
	return nil
}

// Remove drops a subscription; removing an unknown ID is a no-op.
func (f *Filter) Remove(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.subs[id]
	if s == nil {
		return
	}
	f.unlink(s)
	delete(f.subs, id)
	f.compactIfDue()
}

// Len returns the number of registered subscriptions.
func (f *Filter) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.subs)
}

// link enters a validated subscription under the given free handle: its
// simple conditions into the registry and the AES, its complex queries
// into the YFilter. It is the only way structures are built — compaction
// replays it. Callers hold f.mu.
func (f *Filter) link(src Subscription, handle int) {
	s := &sub{Subscription: src, handle: handle}
	s.seq = f.reg.acquire(src.Simple)
	for _, p := range src.Complex {
		if p.IsLinear() {
			qid := len(f.pathByQID)
			if err := f.yf.Add(qid, p); err == nil {
				s.pathIDs = append(s.pathIDs, qid)
				f.pathByQID = append(f.pathByQID, p)
				continue
			}
		}
		// Non-linear tree patterns are evaluated directly per active
		// document; rare in practice, but supported.
		s.direct = append(s.direct, p)
	}
	if len(s.seq) > 0 {
		if err := f.aes.Insert(s.seq, handle); err != nil {
			// acquire produces strictly ascending non-empty sequences; an
			// error here is a programming bug.
			panic(err)
		}
	} else {
		f.alwaysActive = append(f.alwaysActive, s)
	}
	f.byHandle[handle] = s
	f.subs[s.ID] = s
}

// unlink takes a subscription out of the matching structures, leaving
// its handle slot empty. Callers hold f.mu.
func (f *Filter) unlink(s *sub) {
	if len(s.seq) > 0 {
		f.aes.Delete(s.seq, s.handle)
		f.reg.release(s.seq)
	} else {
		f.alwaysActive = without(f.alwaysActive, s)
	}
	for _, qid := range s.pathIDs {
		f.yf.Remove(qid, f.pathByQID[qid])
		f.pathByQID[qid] = nil
	}
	f.byHandle[s.handle] = nil
	f.retired++
}

// compactIfDue bounds what Add and Remove leave behind. Every retired
// subscription strands at most its own handle, condition IDs and query
// and state IDs, so once more subscriptions were retired than are live
// the structures are rebuilt by linking the live ones again, in
// registration order. The cost, proportional to the live set, is paid at
// most once per that many changes. Callers hold f.mu.
func (f *Filter) compactIfDue() {
	if f.retired <= len(f.subs) {
		return
	}
	live := f.live(make([]*sub, 0, len(f.subs)))
	f.reset()
	f.byHandle = make([]*sub, len(live))
	for h, s := range live {
		f.link(s.Subscription, h)
	}
	f.stats.compactions.Add(1)
}

// Match runs the full two-stage pipeline on a parsed document and returns
// the IDs of matching subscriptions in registration order.
func (f *Filter) Match(doc *xmltree.Node) ([]string, error) {
	return f.MatchMode(doc, ModeTwoStage)
}

// MatchMode matches with an explicit strategy (for the C2 ablation).
func (f *Filter) MatchMode(doc *xmltree.Node, mode Mode) ([]string, error) {
	if doc == nil {
		return nil, fmt.Errorf("filter: nil document")
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	f.stats.docs.Add(1)
	sc := getScratch()
	defer putScratch(sc)
	switch mode {
	case ModeTwoStage:
		return f.matchTwoStage(sc, doc.Attrs, doc, "")
	case ModeYFilterOnly:
		return f.matchYFilterOnly(sc, doc)
	case ModeNaive:
		return f.matchNaive(sc, doc)
	}
	return nil, fmt.Errorf("filter: unknown mode %v", mode)
}

// MatchSerialized filters a document from its serialized form. When the
// simple-condition stages already determine the outcome (no complex
// subscription remains active), the document body is never parsed — only
// its first tag is read, which is the paper's "on the fly" fast path.
func (f *Filter) MatchSerialized(raw string) ([]string, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	f.stats.docs.Add(1)
	sc := getScratch()
	defer putScratch(sc)
	var err error
	if _, sc.attrs, err = xmltree.AppendFirstTag(sc.attrs[:0], raw); err != nil {
		return nil, err
	}
	return f.matchTwoStage(sc, sc.attrs, nil, raw)
}

// matchTwoStage is the paper's pipeline: preFilter and AES over the root
// attributes, then the complex stage over the subscriptions still active.
// A document that arrives serialized (doc nil) is parsed from raw only
// when that last stage runs, into the scratch's chunks.
func (f *Filter) matchTwoStage(sc *scratch, attrs []xmltree.Attr, doc *xmltree.Node, raw string) ([]string, error) {
	var evals, probes int
	sc.satisfied, evals = f.reg.preFilter(attrs, sc.satisfied)
	f.stats.preEvals.Add(uint64(evals))
	sc.handles, probes = f.aes.match(sc.satisfied, &sc.frontier, sc.handles)
	f.stats.aesProbes.Add(uint64(probes))

	// Active complex subscriptions: AES survivors with a complex part,
	// plus subscriptions that have no simple conditions at all.
	sc.out, sc.active = sc.out[:0], sc.active[:0]
	for _, h := range sc.handles {
		if s := f.byHandle[h]; s.IsSimple() {
			sc.out = append(sc.out, h)
		} else {
			sc.active = append(sc.active, s)
		}
	}
	sc.active = append(sc.active, f.alwaysActive...)
	if len(sc.active) == 0 {
		f.stats.yfSkips.Add(1)
		if doc == nil {
			f.stats.skipped.Add(1)
		}
		return f.report(sc), nil
	}
	if doc == nil {
		var err error
		if doc, err = sc.tree.Parse(raw); err != nil {
			return nil, err
		}
		f.stats.parsed.Add(1)
	}
	evals, err := f.runComplex(sc, doc)
	if err != nil {
		return nil, err
	}
	if evals > 0 {
		f.stats.direct.Add(uint64(evals))
	}
	return f.report(sc), nil
}

// runComplex materializes service calls if needed and evaluates the
// complex parts of the active subscriptions, sc.active, via YFilterσ
// (plus direct evaluation for non-linear patterns), appending the
// handles of those that hold to sc.out. It returns the tree patterns it
// evaluated directly.
func (f *Filter) runComplex(sc *scratch, doc *xmltree.Node) (int, error) {
	if f.materializer != nil {
		calls, err := f.materializer(doc)
		f.stats.svcCalls.Add(uint64(calls))
		if err != nil {
			return 0, fmt.Errorf("filter: materialization failed: %w", err)
		}
	}
	f.stats.yfRuns.Add(1)
	evals := 0
	// Every linked query has its own ID, so the active ones are distinct.
	sc.qids = sc.qids[:0]
	for _, s := range sc.active {
		sc.qids = append(sc.qids, s.pathIDs...)
	}
	switch n := len(sc.qids); {
	case n == 0:
	case n <= directEvalThreshold && n*8 <= f.yf.Queries():
		// Virtually pruned automaton: with only a handful of active
		// queries, evaluating them directly beats traversing the shared
		// NFA built for the full workload. MatchesDocument reads a path
		// as YFilter does: /a tests the root element, //a any element.
		sc.matchedQ.reset(len(f.pathByQID))
		evals += n
		for _, qid := range sc.qids {
			if f.pathByQID[qid].MatchesDocument(doc, nil) {
				sc.matchedQ.add(qid)
			}
		}
	default:
		sc.activeQ.reset(len(f.pathByQID))
		for _, qid := range sc.qids {
			sc.activeQ.add(qid)
		}
		f.stats.nfaTrans.Add(uint64(f.yf.run(sc, doc, false)))
	}
	for _, s := range sc.active {
		ok := true
		for _, qid := range s.pathIDs {
			if !sc.matchedQ.has(qid) {
				ok = false
				break
			}
		}
		if ok {
			for _, p := range s.direct {
				evals++
				if !p.MatchesDocument(doc, nil) {
					ok = false
					break
				}
			}
		}
		if ok {
			sc.out = append(sc.out, s.handle)
		}
	}
	return evals, nil
}

// live appends the registered subscriptions to dst[:0] in registration
// order.
func (f *Filter) live(dst []*sub) []*sub {
	dst = dst[:0]
	for _, s := range f.byHandle {
		if s != nil {
			dst = append(dst, s)
		}
	}
	return dst
}

func (f *Filter) matchYFilterOnly(sc *scratch, doc *xmltree.Node) ([]string, error) {
	// Every complex query is active; simple conditions are evaluated per
	// candidate afterwards — no preFilter, no AES.
	sc.out, sc.active = sc.out[:0], f.live(sc.active)
	evals, err := f.runComplex(sc, doc)
	if err != nil {
		return nil, err
	}
	matched := sc.out
	sc.out = sc.out[:0] // filtered in place: writes trail reads
	for _, h := range matched {
		checked, ok := f.simpleHold(f.byHandle[h], doc)
		evals += checked
		if ok {
			sc.out = append(sc.out, h)
		}
	}
	f.stats.direct.Add(uint64(evals))
	return f.report(sc), nil
}

func (f *Filter) matchNaive(sc *scratch, doc *xmltree.Node) ([]string, error) {
	if f.materializer != nil {
		calls, err := f.materializer(doc)
		f.stats.svcCalls.Add(uint64(calls))
		if err != nil {
			return nil, err
		}
	}
	evals := 0
	sc.out, sc.active = sc.out[:0], f.live(sc.active)
	for _, s := range sc.active {
		checked, ok := f.simpleHold(s, doc)
		evals += checked
		for i := 0; ok && i < len(s.Complex); i++ {
			evals++
			ok = s.Complex[i].MatchesDocument(doc, nil)
		}
		if ok {
			sc.out = append(sc.out, s.handle)
		}
	}
	f.stats.direct.Add(uint64(evals))
	return f.report(sc), nil
}

// simpleHold evaluates s's simple conditions in order, up to the first
// that fails, and returns how many it evaluated and whether all held.
func (f *Filter) simpleHold(s *sub, doc *xmltree.Node) (int, bool) {
	for i, id := range s.seq {
		c := f.reg.conds[id]
		v, ok := doc.Attr(c.Attr)
		if !ok || !c.Eval(v) {
			return i + 1, false
		}
	}
	return len(s.seq), true
}

// report turns the matched handles in sc.out into subscription IDs, in
// registration order, each once.
func (f *Filter) report(sc *scratch) []string {
	sc.out = ascending(sc.out, &sc.bits)
	ids := make([]string, len(sc.out))
	for i, h := range sc.out {
		ids[i] = f.byHandle[h].ID
	}
	f.stats.outs.Add(uint64(len(ids)))
	return ids
}

// Stats returns a snapshot of the cumulative counters.
func (f *Filter) Stats() Stats {
	return Stats{
		Docs:            f.stats.docs.Load(),
		PreFilterEvals:  f.stats.preEvals.Load(),
		AESProbes:       f.stats.aesProbes.Load(),
		YFilterRuns:     f.stats.yfRuns.Load(),
		YFilterSkips:    f.stats.yfSkips.Load(),
		NFATransitions:  f.stats.nfaTrans.Load(),
		DirectEvals:     f.stats.direct.Load(),
		ServiceCalls:    f.stats.svcCalls.Load(),
		BodiesParsed:    f.stats.parsed.Load(),
		BodiesSkipped:   f.stats.skipped.Load(),
		MatchesReported: f.stats.outs.Load(),
		Compactions:     f.stats.compactions.Load(),
	}
}

// DumpAES renders the AES hash-tree (Figure 6 style) for inspection.
func (f *Filter) DumpAES() string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.aes.Dump(func(id int) string { return f.reg.conds[id].String() })
}

// YFilterStates exposes the NFA size for the scaling experiments.
func (f *Filter) YFilterStates() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.yf.States()
}
