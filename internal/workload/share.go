package workload

import (
	"fmt"
	"sort"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/monoid"
	"p2pm/internal/peer"
	"p2pm/internal/stream"
)

// ShareConfig parameterizes the multi-tenant aggregation scenario: many
// overlapping windowed-group subscriptions over the same source pool,
// deployed either independently (Mode "unshared" — every task builds its
// own aggregation tree) or through the reuse pass (Mode "shared" —
// identical aggregates resolve to a channel on the existing tree's root,
// and contained ones graft onto its partial streams). Each subscription
// is scored for byte-identity against the deterministic expectation
// replayed from the drive schedule, so sharing is measured as pure
// deployment savings, never as an answer change. The churn victim is the
// host of the seed task's first DHT-routed interior — the shared
// infrastructure every other subscription depends on; runtime joiners
// re-parent those interiors under every subscriber's feet.
type ShareConfig struct {
	Common
	GroupBy
	// Subs is the number of subscriptions. Subscription 0 spans every
	// source; later ones cover sliding sub-ranges, so the population
	// mixes exact duplicates, contained subsets and partial overlaps.
	Subs int
	// Mode is "shared" (deploy through the reuse pass) or "unshared".
	Mode string
}

// DefaultShare returns a moderate sharing scenario. Replay is on:
// byte-identity through churn needs it.
func DefaultShare() ShareConfig {
	return ShareConfig{
		Common: Common{
			Seed: 1, Sources: 6, Workers: 4, Events: 48,
			Step: time.Second, MTTR: 10 * time.Second,
			HeartbeatInterval: time.Second, Suspicion: 2 * time.Second,
			Replay: true,
		},
		GroupBy: GroupBy{Degree: 3},
		Subs:    12, Mode: "shared",
	}
}

// ShareReport summarizes one multi-tenant aggregation run. Sharing shows
// up in the embedded ingest stats as a lower max: partial streams fan
// out once, not once per subscription.
type ShareReport struct {
	RunStats
	Mode string
	Subs int
	// Operators sums every task's deployed operator count — the sharing
	// headline: unshared grows linearly in Subs × Sources, shared
	// sublinearly (later subscriptions deploy a root, or nothing).
	Operators int
	// ReusedOps / NewOps sum the reuse pass's accounting over all
	// subscriptions (zero in unshared mode).
	ReusedOps int
	NewOps    int
	// Lookups / FailedLookups sum the discovery traffic of the reuse
	// passes.
	Lookups       int
	FailedLookups int
	// ExpectedGroups / CorrectGroups score each subscription's windowed
	// records against its own schedule replay; ByteIdenticalSubs counts
	// subscriptions whose full record set matched byte-for-byte.
	ExpectedGroups    int
	CorrectGroups     int
	ByteIdenticalSubs int
	// Mismatches describes each non-identical subscription (diagnostics).
	Mismatches []string
}

// Completeness is the fraction of expected windowed groups that arrived
// byte-exactly, across all subscriptions.
func (r *ShareReport) Completeness() float64 {
	if r.ExpectedGroups == 0 {
		return 1
	}
	return float64(r.CorrectGroups) / float64(r.ExpectedGroups)
}

// OpsPerSub is the mean operator count one subscription cost to deploy.
func (r *ShareReport) OpsPerSub() float64 {
	if r.Subs == 0 {
		return 0
	}
	return float64(r.Operators) / float64(r.Subs)
}

// subRange is one subscription's half-open source interval.
type subRange struct{ start, end int }

// shareRange derives subscription j's source interval: sub 0 spans all
// sources (it seeds the full tree); later subs cycle through lengths
// 2..S at sliding offsets, producing duplicates, prefixes and partial
// overlaps deterministically.
func shareRange(j, sources int) subRange {
	if j == 0 {
		return subRange{0, sources}
	}
	length := 2 + (j-1)%(sources-1)
	start := (j - 1) % (sources - length + 1)
	return subRange{start, start + length}
}

// setup deploys every subscription before any event is driven, because
// windowed aggregation is watermark-based: a subscriber arriving after a
// window closed can never see it, so byte-identity is only a fair gate
// for subscriptions that watched the whole run. The seed task deploys
// (and is torn down) first: closing its alerter channels floods EOS
// through every sharing consumer, so trailing windows flush before any
// consumer detaches.
func (cfg *ShareConfig) setup() (*scenarioSpec[*ShareReport], error) {
	if err := cfg.normalize("share", 2, 1); err != nil {
		return nil, err
	}
	if cfg.Subs < 1 {
		return nil, fmt.Errorf("workload: share needs >= 1 subscription (got %d)", cfg.Subs)
	}
	if cfg.Mode != "shared" && cfg.Mode != "unshared" {
		return nil, fmt.Errorf("workload: unknown share mode %q (want shared or unshared)", cfg.Mode)
	}
	cfg.GroupBy.defaults(cfg.Step)
	sources := sourceNames(cfg.Sources)
	return &scenarioSpec[*ShareReport]{
		common:  &cfg.Common,
		sources: sources,
		tune:    func(pc *peer.Config) { pc.Agg.Degree = cfg.Degree },
		deploy: func(l *Lab[*ShareReport], mgr *peer.Peer) ([]*peer.Task, error) {
			deploy := mgr.DeployPlan
			if cfg.Mode == "shared" {
				deploy = mgr.DeployPlanShared
			}
			var tasks []*peer.Task
			for j := 0; j < cfg.Subs; j++ {
				rng := shareRange(j, cfg.Sources)
				// Roots spread over the peers present at deploy time;
				// runtime joiners host re-parented interiors instead.
				host := fmt.Sprintf("w%d", j%l.startWorkers())
				task, err := deploy(groupPlan(sources[rng.start:rng.end], host, fmt.Sprintf("share-%04d", j),
					&algebra.GroupSpec{KeyAttr: "callee", Window: cfg.Window.String()}))
				if err != nil {
					return nil, fmt.Errorf("workload: deploying subscription %d: %w", j, err)
				}
				tasks = append(tasks, task)
			}
			return tasks, nil
		},
		score: func(l *Lab[*ShareReport], st RunStats, results [][]stream.Item) *ShareReport {
			rep := &ShareReport{RunStats: st, Mode: cfg.Mode, Subs: cfg.Subs}
			count, _ := monoid.Lookup("count")
			for j, t := range l.Tasks {
				rep.Operators += t.OperatorsDeployed()
				if t.Reuse != nil {
					rep.ReusedOps += t.Reuse.ReusedOps
					rep.NewOps += t.Reuse.NewOps
					rep.Lookups += t.Reuse.Lookups
					rep.FailedLookups += t.Reuse.FailedLookups
				}
				rng := shareRange(j, cfg.Sources)
				exp, _ := cfg.groupOracle(cfg.Window, count, nil, rng.start, rng.end)
				rep.ExpectedGroups += len(exp)
				got := groupRecords(results[j])
				extra := 0
				for gk, rs := range got {
					if exp[gk] == nil {
						extra += len(rs)
					}
				}
				var missing, wrong []string
				for gk, want := range exp {
					switch rs := got[gk]; {
					case len(rs) == 1 && rs[0].String() == want.String():
						rep.CorrectGroups++
					case len(rs) == 0:
						missing = append(missing, gk)
					default:
						wrong = append(wrong, fmt.Sprintf("%s(n=%d)", gk, len(rs)))
					}
				}
				if extra == 0 && len(missing) == 0 && len(wrong) == 0 {
					rep.ByteIdenticalSubs++
					continue
				}
				sort.Strings(missing)
				sort.Strings(wrong)
				rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
					"sub %d [%d,%d): missing=%v wrong=%v extra=%d", j, rng.start, rng.end, missing, wrong, extra))
			}
			return rep
		},
	}, nil
}
