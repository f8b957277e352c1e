package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"p2pm/bench/gen"
	"p2pm/internal/filter"
	"p2pm/internal/telemetry"
	"p2pm/internal/xmltree"
	"p2pm/internal/xpath"
)

// filter-10k: 10 000 subscriptions in one filter.Filter, a stream of
// serialized alerts through MatchSerialized with one call in flight,
// and one Remove+Add per block of 2 000 documents, so a faster match
// bought with a slower rebuild shows as a loss.

const (
	filterSubs      = 10000
	filterDocPool   = 32768
	filterBlock     = 2000 // documents between two subscription changes
	filterOracleGap = 64   // every 64th document is checked against ModeNaive
	filterSetupReps = 60
)

// buildFilter is the set-up under test: register every subscription and
// pay the lazy AES/YFilter build with a first match.
func buildFilter(subs []filter.Subscription, firstDoc string) (*filter.Filter, error) {
	f := filter.New()
	for _, s := range subs {
		if err := f.Add(s); err != nil {
			return nil, fmt.Errorf("adding %s: %w", s.ID, err)
		}
	}
	if _, err := f.MatchSerialized(firstDoc); err != nil {
		return nil, err
	}
	return f, nil
}

func runFilter(cfg *config) (*run, error) {
	g := gen.NewFilter(cfg.Seed)
	subs := g.Subscriptions(cfg.scaled(filterSubs, 50))
	docs := g.Documents(cfg.scaled(filterDocPool, 256))
	block := cfg.scaled(filterBlock, 128)
	churn := rand.New(rand.NewSource(cfg.Seed)) // picks the subscription each change replaces
	res := newRun()

	var f *filter.Filter
	err := timeSetups(cfg, res, filterSetupReps, func() {}, func(*telemetry.Registry) (err error) {
		f, err = buildFilter(subs, docs[0])
		return err
	})
	if err != nil {
		return nil, err
	}

	for i := 0; i < block; i++ { // warm-up
		if _, err := f.MatchSerialized(docs[i%len(docs)]); err != nil {
			return nil, err
		}
	}

	// Every 64th verdict is kept, with the number of subscription changes
	// made before it, for the oracle to replay after the timed part.
	type sample struct {
		epoch, doc int
		ids        []string
	}
	var (
		tr        = cfg.Trace
		lat       = make([]int64, 0, int(cfg.Seconds*40000)+block)
		forwarded int64 // bytes of documents with at least one match
		n         int
		samples   []sample
		changes   []filter.Subscription // the churn, in order
	)
	s0, m0, t0 := f.Stats(), cfg.Speed.markMem(), time.Now()
	meter := newRateMeter(cfg.Speed, func() float64 { return float64(n) })
	for time.Since(t0) < cfg.phase(1) {
		for k := 0; k < block; k++ {
			d := n % len(docs)
			sp := tr.begin("filter.MatchSerialized", noSpan, int64(n))
			c0 := time.Now()
			ids, err := f.MatchSerialized(docs[d])
			lat = append(lat, int64(time.Since(c0)))
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			if len(ids) > 0 {
				forwarded += int64(len(docs[d]))
			}
			if n%filterOracleGap == 0 {
				samples = append(samples, sample{len(changes), d, ids})
			}
			n++
		}
		// Subscription churn beside matching: the next match pays the
		// lazy rebuild.
		change := g.Subscription(subs[churn.Intn(len(subs))].ID)
		sp := tr.begin("filter.Remove+Add", noSpan, -1)
		f.Remove(change.ID)
		err := f.Add(change)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		changes = append(changes, change)
		meter.mark() // one slice: a block of matches and its subscription change
	}
	allocs, bytes := cfg.Speed.markMem().since(m0)
	rel := cfg.Speed.take()
	stats := addStats(filter.Stats{}, f.Stats(), s0)

	// Oracle, after the timed part so it cannot disturb it: a second
	// filter replays the same subscription history, and at each epoch the
	// sampled match sets must equal its ModeNaive verdicts.
	ref, err := buildFilter(subs, docs[0])
	if err != nil {
		return nil, err
	}
	parsed := make([]*xmltree.Node, len(docs))
	epoch := 0
	for _, s := range samples {
		for ; epoch < s.epoch; epoch++ {
			ref.Remove(changes[epoch].ID)
			if err := ref.Add(changes[epoch]); err != nil {
				return nil, err
			}
		}
		if parsed[s.doc] == nil {
			if parsed[s.doc], err = xmltree.Parse(docs[s.doc]); err != nil {
				return nil, err
			}
		}
		want, err := ref.MatchMode(parsed[s.doc], filter.ModeNaive)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if !sameSet(s.ids, want) {
			res.fail(1, "doc %d: two-stage matched %d subscriptions, naive %d", s.doc, len(s.ids), len(want))
		}
	}

	items := float64(n)
	rate, _ := meter.rate()
	res.setRate(rate, rel, n)
	res.setLatency(lat, rel)
	res.set("allocs_per_item", allocs/items, n)
	res.set("alloc_bytes_per_item", bytes/items, n)
	res.set("net_bytes_per_item", float64(forwarded)/items, n)
	if tr != nil && stats.Docs > 0 {
		d := float64(stats.Docs)
		res.set("filter.prefilter_evals_per_doc", float64(stats.PreFilterEvals)/d, int(stats.Docs))
		res.set("filter.aes_probes_per_doc", float64(stats.AESProbes)/d, int(stats.Docs))
		res.set("filter.yfilter_run_frac", float64(stats.YFilterRuns)/d, int(stats.Docs))
		res.set("filter.body_parsed_frac", float64(stats.BodiesParsed)/d, int(stats.Docs))
		res.set("filter.matches_per_doc", float64(stats.MatchesReported)/d, int(stats.Docs))
	}
	return res, nil
}

// addStats accumulates the counters added between two snapshots.
func addStats(acc, after, before filter.Stats) filter.Stats {
	acc.Docs += after.Docs - before.Docs
	acc.PreFilterEvals += after.PreFilterEvals - before.PreFilterEvals
	acc.AESProbes += after.AESProbes - before.AESProbes
	acc.YFilterRuns += after.YFilterRuns - before.YFilterRuns
	acc.BodiesParsed += after.BodiesParsed - before.BodiesParsed
	acc.MatchesReported += after.MatchesReported - before.MatchesReported
	return acc
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replayFilter times the layers under filter-10k on its own inputs:
// xmltree, xpath, the AES hash-tree alone, and the whole filter.
func replayFilter(cfg *config, out *run) error {
	g := gen.NewFilter(cfg.Seed)
	subs := g.Subscriptions(cfg.scaled(filterSubs, 50))
	raws := g.Documents(cfg.scaled(filterDocPool, 256))
	trees := make([]*xmltree.Node, len(raws))
	for i, raw := range raws {
		doc, err := xmltree.Parse(raw)
		if err != nil {
			return err
		}
		trees[i] = doc
	}
	raw := func(i int) string { return raws[i%len(raws)] }

	setTime(cfg, out, "xmltree.parse_us", 1e3, func(i int) { xmltree.Parse(raw(i)) }) //nolint:errcheck // parsed above
	out.set("xmltree.parse_allocs", allocsOp(512, func(i int) { xmltree.Parse(raw(i)) }), 512)
	setTime(cfg, out, "xmltree.first_tag_ns", 1, func(i int) { xmltree.ReadFirstTag(raw(i)) }) //nolint:errcheck // parsed above
	setTime(cfg, out, "xmltree.serialize_us", 1e3, func(i int) { _ = trees[i%len(trees)].String() })

	// One tree pattern per complex subscription, evaluated directly.
	var paths []*xpath.Path
	for _, s := range subs {
		paths = append(paths, s.Complex...)
	}
	if len(paths) > 0 {
		setTime(cfg, out, "xpath.eval_ns", 1, func(i int) { paths[i%len(paths)].Matches(trees[i%len(trees)], nil) })
	}

	// The AES hash-tree alone: conditions numbered in (attribute, value)
	// order, each document reduced to its sorted satisfied-condition list.
	condID := map[filter.Cond]int{}
	var conds []filter.Cond
	for _, s := range subs {
		for _, c := range s.Simple {
			if _, ok := condID[c]; !ok {
				condID[c] = 0
				conds = append(conds, c)
			}
		}
	}
	sort.Slice(conds, func(i, j int) bool {
		if conds[i].Attr != conds[j].Attr {
			return conds[i].Attr < conds[j].Attr
		}
		return conds[i].Value < conds[j].Value
	})
	for i, c := range conds {
		condID[c] = i
	}
	aes := filter.NewAES()
	for h, s := range subs {
		seq := make([]int, 0, len(s.Simple))
		for _, c := range s.Simple {
			seq = append(seq, condID[c])
		}
		sort.Ints(seq)
		if err := aes.Insert(seq, h); err != nil {
			return err
		}
	}
	satisfied := make([][]int, len(raws))
	for i, r := range raws {
		_, attrs, err := xmltree.ReadFirstTag(r)
		if err != nil {
			return err
		}
		for _, a := range attrs {
			if id, ok := condID[filter.Cond{Attr: a.Name, Op: xpath.OpEq, Value: a.Value}]; ok {
				satisfied[i] = append(satisfied[i], id)
			}
		}
		sort.Ints(satisfied[i])
	}
	setTime(cfg, out, "filter.aes_match_us", 1e3, func(i int) { aes.Match(satisfied[i%len(satisfied)]) })

	f, err := buildFilter(subs, raws[0])
	if err != nil {
		return err
	}
	setTime(cfg, out, "filter.match_us", 1e3, func(i int) { f.MatchSerialized(raw(i)) }) //nolint:errcheck // parsed above
	out.set("filter.match_allocs", allocsOp(512, func(i int) { f.MatchSerialized(raw(i)) }), 512)
	// One subscription change and the match that pays its rebuild.
	setTime(cfg, out, "filter.rebuild_ms", 1e6, func(i int) {
		id := subs[i%len(subs)].ID
		f.Remove(id)
		f.Add(g.Subscription(id)) //nolint:errcheck // generated subscriptions are valid
		f.MatchSerialized(raw(i)) //nolint:errcheck // parsed above
	})
	return nil
}
