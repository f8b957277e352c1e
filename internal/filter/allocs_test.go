package filter_test

import (
	"runtime"
	"testing"

	"p2pm/internal/filter"
	"p2pm/internal/workload"
)

// serializedWorld is 10k generated subscriptions, complexFrac of them
// with a tree pattern, in one Filter, and 256 serialized alerts.
func serializedWorld(t *testing.T, complexFrac float64) (*filter.Filter, []filter.Subscription, []string) {
	t.Helper()
	cfg := workload.DefaultFilterGen()
	cfg.ComplexFraction = complexFrac
	gen := workload.NewFilterGen(cfg)
	f := filter.New()
	subs := gen.Subscriptions(10000)
	for _, s := range subs {
		if err := f.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	return f, subs, gen.SerializedDocuments(256)
}

// TestMatchSerializedAtScaleAllocs pins the filter's allocations per
// document at 10k subscriptions, averaged over 256 generated alerts: a
// match with tree patterns active and one with none (either way the
// result is all: the body is parsed into the pooled scratch), and one
// subscription change beside matching — Remove, Add and the match that
// follows.
func TestMatchSerializedAtScaleAllocs(t *testing.T) {
	if filter.RaceEnabled() {
		t.Skip("under -race sync.Pool drops entries at random, so the scratch is rebuilt")
	}
	check := func(name string, runs int, fn func(), want float64) {
		t.Helper()
		// Building the world leaves a collection due; one inside the
		// measurement would empty the scratch pool.
		runtime.GC()
		if got := testing.AllocsPerRun(runs, fn); got != want {
			t.Errorf("%s: %v allocs per document, want %v", name, got, want)
		}
	}
	f, subs, raws := serializedWorld(t, 0.3)
	i := 0
	check("match, complex subscriptions active", 1024, func() {
		f.MatchSerialized(raws[i%len(raws)]) //nolint:errcheck // generated alerts parse
		i++
	}, 1)
	i = 0
	check("remove, add and match", 1024, func() {
		s := subs[i%len(subs)]
		f.Remove(s.ID)
		if err := f.Add(s); err != nil {
			t.Fatal(err)
		}
		f.MatchSerialized(raws[i%len(raws)]) //nolint:errcheck // generated alerts parse
		i++
	}, 7)

	f, _, raws = serializedWorld(t, 0)
	i = 0
	check("match, first tag only", 1024, func() {
		f.MatchSerialized(raws[i%len(raws)]) //nolint:errcheck // generated alerts parse
		i++
	}, 0)
}
