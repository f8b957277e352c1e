package workload

import (
	"testing"
)

func shareCfg(mode string) ShareConfig {
	cfg := DefaultShare()
	cfg.Mode = mode
	return cfg
}

func runShare(t *testing.T, cfg ShareConfig) *ShareReport {
	t.Helper()
	lab, err := New(&cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := lab.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

// The headline property: sharing deploys far fewer operators than
// independent deployment, and both answer byte-identically.
func TestShareDeploysFewerOperatorsSameAnswers(t *testing.T) {
	shared := runShare(t, shareCfg("shared"))
	unshared := runShare(t, shareCfg("unshared"))

	for _, rep := range []*ShareReport{shared, unshared} {
		if rep.ByteIdenticalSubs != rep.Subs {
			t.Errorf("%s: %d/%d subscriptions byte-identical (completeness %.3f)",
				rep.Mode, rep.ByteIdenticalSubs, rep.Subs, rep.Completeness())
		}
	}
	if shared.Operators >= unshared.Operators {
		t.Errorf("shared deployed %d operators, unshared %d — sharing saved nothing",
			shared.Operators, unshared.Operators)
	}
	if shared.ReusedOps == 0 {
		t.Errorf("shared mode reported zero reused operators")
	}
	if shared.FailedLookups != 0 {
		t.Errorf("shared mode recorded %d failed lookups", shared.FailedLookups)
	}
}

// Exact duplicates of an already-deployed aggregate must resolve to a
// channel on the existing tree's root: no processors at all.
func TestShareExactDuplicateDeploysNothing(t *testing.T) {
	cfg := shareCfg("shared")
	cfg.Subs = 2
	cfg.Sources = 6 // sub 1 = range [0,2): contained, not duplicate
	lab, err := New(&cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		for _, task := range lab.Tasks {
			task.Stop()
		}
	}()
	// Deploy a true duplicate of the seed subscription by hand.
	dupCfg := cfg
	dupCfg.Subs = 1
	if lab.Tasks[0].Reuse == nil || lab.Tasks[0].Reuse.NewOps == 0 {
		t.Fatalf("seed subscription should deploy fresh operators")
	}
	seedOps := lab.Tasks[0].OperatorsDeployed()
	if seedOps == 0 {
		t.Fatalf("seed subscription deployed no operators")
	}
	// Subscription 1 covers sources [0,2), a strict subset: it must graft
	// (reuse partial streams) rather than rebuild its branches.
	sub1 := lab.Tasks[1]
	if sub1.Reuse == nil {
		t.Fatalf("subscription 1 has no reuse result")
	}
	if sub1.Reuse.ReusedOps == 0 {
		t.Errorf("contained subscription reused nothing (new=%d)", sub1.Reuse.NewOps)
	}
	if got, seed := sub1.OperatorsDeployed(), seedOps; got >= seed {
		t.Errorf("contained subscription deployed %d operators, seed %d", got, seed)
	}
}

// Sharing must hold through churn on the shared interiors: crashes and
// graceful leaves of the host carrying shared merge state, with every
// subscription still byte-identical (replay layer on).
func TestShareChurnOnSharedInteriors(t *testing.T) {
	if testing.Short() {
		t.Skip("churn run in -short mode")
	}
	for _, mode := range []string{"crash", "leave", "join"} {
		t.Run(mode, func(t *testing.T) {
			cfg := shareCfg("shared")
			cfg.Events = 64
			switch mode {
			case "crash":
				cfg.CrashEvery = 24
			case "leave":
				cfg.LeaveEvery = 24
			case "join":
				cfg.GrowFrom = 2 // two workers join mid-run
			}
			rep := runShare(t, cfg)
			if mode == "crash" && rep.Crashes == 0 {
				t.Fatalf("schedule injected no crashes")
			}
			if mode == "leave" && rep.Leaves == 0 {
				t.Fatalf("schedule injected no leaves")
			}
			if mode == "join" && rep.Joins != cfg.Workers-cfg.GrowFrom {
				t.Fatalf("schedule admitted %d joiners, want %d", rep.Joins, cfg.Workers-cfg.GrowFrom)
			}
			if rep.ByteIdenticalSubs != rep.Subs {
				t.Errorf("%d/%d subscriptions byte-identical under %s churn (completeness %.3f)",
					rep.ByteIdenticalSubs, rep.Subs, mode, rep.Completeness())
				for _, line := range rep.Timeline {
					t.Logf("timeline: %s", line)
				}
			}
		})
	}
}

// The sliding-range generator must produce the documented population:
// full seed, then lengths cycling 2..S at sliding offsets, all in range.
func TestShareRangeGenerator(t *testing.T) {
	const S = 6
	if r := shareRange(0, S); r.start != 0 || r.end != S {
		t.Fatalf("seed range = %+v, want [0,%d)", r, S)
	}
	lens := map[int]bool{}
	for j := 1; j < 40; j++ {
		r := shareRange(j, S)
		if r.start < 0 || r.end > S || r.end-r.start < 2 {
			t.Fatalf("sub %d range %+v out of bounds", j, r)
		}
		lens[r.end-r.start] = true
	}
	for l := 2; l <= S; l++ {
		if !lens[l] {
			t.Errorf("length %d never generated", l)
		}
	}
}
