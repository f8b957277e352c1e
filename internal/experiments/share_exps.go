package experiments

import (
	"fmt"
	"time"

	"p2pm/internal/workload"
)

func init() {
	register("X5", "multi-tenant aggregate sharing — operators deployed and per-peer ingest for overlapping windowed-group subscriptions, shared vs unshared, with byte-identity and churn on the shared interiors (extension)", runX5)
}

// runX5 measures the aggregate-sharing extension.
//
// Head-to-head table: a population of overlapping windowed group-by-count
// subscriptions (sliding source ranges over the same monitored peers)
// deployed unshared (each builds its own alerters and aggregation tree)
// versus through the reuse pass (exact duplicates resolve to a channel on
// the existing tree root; contained source sets graft a merge onto the
// already-running partial streams). Both modes must answer every
// subscription byte-identically to the monoid replay of the drive
// schedule; sharing must deploy fewer operators and bound the hottest
// peer's ingest below the unshared hotspot.
//
// Scaling table: shared-mode deployment cost as the population grows.
// Once every distinct range is live, new subscribers are pure channel
// taps, so operators-per-subscription must fall — sublinear growth.
//
// Churn table: crashes, graceful leaves and runtime joins hitting the
// host that carries shared merge state, replay on. An interior here
// feeds many subscriptions at once, so one repair must make every
// tenant whole.
func runX5(s Scale) (*Result, error) {
	res := &Result{
		ID:    "X5",
		Claim: `"to determine which already existing streams may be reused for that task to save CPU consumption and network traffic" (§5) — extension: overlapping windowed-group subscriptions share aggregation trees, so operators deployed grow sublinearly in subscribers and per-peer ingest stays near the single-tree cost, byte-identically and through churn on the shared interiors`,
	}
	sources, workers := 12, 6
	events := 64
	window := 24 * time.Second
	headSubs := 1000
	subsScale := []int{50, 250, 1000}
	churnSubs, churnEvents := 48, 64
	crashEvery, leaveEvery, growFrom := 24, 24, 3
	if s == Quick {
		sources, workers = 6, 4
		events = 48
		window = 16 * time.Second
		headSubs = 24
		subsScale = []int{8, 24}
		churnSubs, churnEvents = 12, 48
		crashEvery, leaveEvery, growFrom = 16, 16, 2
	}

	base := func(mode string, subs int) workload.ShareConfig {
		cfg := workload.DefaultShare()
		cfg.Mode = mode
		cfg.Sources = sources
		cfg.Workers = workers
		cfg.Subs = subs
		cfg.Events = events
		cfg.Window = window
		return cfg
	}
	run := func(cfg workload.ShareConfig) (*workload.ShareReport, error) {
		return workload.Run(&cfg)
	}

	holds := true

	// Head-to-head at the full population: shared vs unshared.
	head := NewTable(fmt.Sprintf("%d overlapping subscriptions, shared vs unshared deployment", headSubs),
		"deployment", "operators", "ops/sub", "reused ops", "lookups", "max ingest/peer", "mean/peer", "byte-identical", "completeness")
	sharedRep, err := run(base("shared", headSubs))
	if err != nil {
		return nil, err
	}
	unsharedRep, err := run(base("unshared", headSubs))
	if err != nil {
		return nil, err
	}
	for _, row := range []struct {
		name string
		rep  *workload.ShareReport
	}{{"shared (reuse pass)", sharedRep}, {"unshared (tree per subscription)", unsharedRep}} {
		head.AddRow(row.name, row.rep.Operators,
			fmt.Sprintf("%.2f", row.rep.OpsPerSub()),
			row.rep.ReusedOps, row.rep.Lookups,
			row.rep.IngestMax, fmt.Sprintf("%.1f", row.rep.IngestMean),
			fmt.Sprintf("%d/%d", row.rep.ByteIdenticalSubs, row.rep.Subs),
			fmt.Sprintf("%.0f%%", row.rep.Completeness()*100))
	}
	res.Tables = append(res.Tables, head)
	// The acceptance line: identical answers in both modes, sharing
	// deploys a small fraction of the operators and keeps the hottest
	// peer well under the unshared hotspot, and no lookup ever failed
	// (failed discovery degrades to unshared — allowed, but it would
	// mean the descriptors are wrong).
	holds = holds &&
		sharedRep.ByteIdenticalSubs == sharedRep.Subs &&
		unsharedRep.ByteIdenticalSubs == unsharedRep.Subs &&
		sharedRep.ReusedOps > 0 && sharedRep.FailedLookups == 0 &&
		sharedRep.Operators*2 < unsharedRep.Operators &&
		sharedRep.IngestMax < unsharedRep.IngestMax

	// Scaling: shared-mode deployment cost must grow sublinearly — once
	// every distinct range is live, later subscribers are channel taps.
	scaling := NewTable("shared-mode deployment cost as the population grows",
		"subscriptions", "operators", "ops/sub", "reused ops", "byte-identical")
	var opsPerSub []float64
	scaleOps := map[int]int{}
	for _, n := range subsScale {
		var rep *workload.ShareReport
		if n == headSubs {
			rep = sharedRep // same config: reuse the head-to-head run
		} else {
			rep, err = run(base("shared", n))
			if err != nil {
				return nil, err
			}
		}
		scaling.AddRow(rep.Subs, rep.Operators, fmt.Sprintf("%.2f", rep.OpsPerSub()),
			rep.ReusedOps, fmt.Sprintf("%d/%d", rep.ByteIdenticalSubs, rep.Subs))
		opsPerSub = append(opsPerSub, rep.OpsPerSub())
		scaleOps[rep.Subs] = rep.Operators
		holds = holds && rep.ByteIdenticalSubs == rep.Subs && rep.FailedLookups == 0
	}
	res.Tables = append(res.Tables, scaling)
	for i := 1; i < len(opsPerSub); i++ {
		holds = holds && opsPerSub[i] < opsPerSub[i-1]
	}
	// Sublinearity across the extremes: growing the population by k× must
	// grow the operator count by clearly less than k×. (At full scale the
	// distinct ranges are exhausted early and the count plateaus, so the
	// real ratio is near 1; Quick's population is too small to plateau,
	// hence the softer 0.75 factor.)
	small, big := subsScale[0], subsScale[len(subsScale)-1]
	holds = holds && float64(scaleOps[big])/float64(scaleOps[small]) < float64(big)/float64(small)*0.75

	// Churn on the shared interiors: one interior feeds many tenants, so
	// every repair has to make all of them whole (replay on throughout).
	churn := NewTable(fmt.Sprintf("churn on shared interiors, %d subscriptions (replay on)", churnSubs),
		"scenario", "crashes", "leaves", "joins", "repairs", "replayed", "byte-identical", "completeness")
	churnRow := func(name string, mutate func(*workload.ShareConfig), wantCrashes, wantLeaves, wantJoins bool) error {
		cfg := base("shared", churnSubs)
		cfg.Events = churnEvents
		mutate(&cfg)
		rep, err := run(cfg)
		if err != nil {
			return err
		}
		churn.AddRow(name, rep.Crashes, rep.Leaves, rep.Joins, rep.Repairs+rep.LeaveRepairs,
			rep.Replayed, fmt.Sprintf("%d/%d", rep.ByteIdenticalSubs, rep.Subs),
			fmt.Sprintf("%.0f%%", rep.Completeness()*100))
		holds = holds && rep.ByteIdenticalSubs == rep.Subs && rep.FailedLookups == 0
		if wantCrashes {
			holds = holds && rep.Crashes > 0
		}
		if wantLeaves {
			holds = holds && rep.Leaves > 0
		}
		if wantJoins {
			holds = holds && rep.Joins == workers-growFrom
		}
		return nil
	}
	if err := churnRow("no churn", func(*workload.ShareConfig) {}, false, false, false); err != nil {
		return nil, err
	}
	if err := churnRow(fmt.Sprintf("shared-interior crash every %d events", crashEvery),
		func(c *workload.ShareConfig) { c.CrashEvery = crashEvery }, true, false, false); err != nil {
		return nil, err
	}
	if err := churnRow(fmt.Sprintf("graceful leave every %d events", leaveEvery),
		func(c *workload.ShareConfig) { c.LeaveEvery = leaveEvery }, false, true, false); err != nil {
		return nil, err
	}
	if err := churnRow(fmt.Sprintf("grow %d→%d workers (interiors re-parent)", growFrom, workers),
		func(c *workload.ShareConfig) { c.GrowFrom = growFrom }, false, false, true); err != nil {
		return nil, err
	}
	res.Tables = append(res.Tables, churn)

	res.Notes = append(res.Notes,
		"sharing is discovered from the published stream definitions alone: tree roots also publish under the equivalent flat plan's signature (exact duplicates become channel taps), and partial/merge emitters publish their group identity plus source-signature sets (contained source sets graft a final merge onto a disjoint cover of running partials) — docs/REUSE.md",
		"grafted roots publish too, so sharing compounds: the second subscriber to a grafted range taps its root instead of re-grafting",
		"every subscription is scored byte-identically against an independent monoid replay of the drive schedule, not against the other mode — both modes are checked against ground truth",
		"shared interiors are multi-tenant: crash repair rides the replica/cursor machinery, and planned moves (joins, graceful leaves) re-bind every consumer's channel subscription across task boundaries (System.RebalanceAggTrees + stale-channel sweep)",
		"partial streams are only safe to graft for subscribers deployed before events flow — a late subscriber would miss already-closed windows under the watermark rule — so the lab deploys the whole population up front; late arrivals exact-match final streams instead, which replay from the cursor store",
		fmt.Sprintf("population: subscription 0 spans all %d sources; subscription j covers a sliding range of length 2+(j-1) mod %d — duplicates, strict prefixes and partial overlaps all occur", sources, sources-1))
	res.Holds = holds
	return res, nil
}
