package experiments

import (
	"fmt"
	"time"

	"p2pm/internal/workload"
)

func init() {
	register("X4", "in-network aggregation trees — per-peer ingest load tree vs flat, and windowed-count completeness under interior crashes, graceful leaves and runtime joins (extension)", runX4)
}

// runX4 measures the aggregation-tree extension.
//
// Ingest table: the same windowed group-by-count query deployed flat
// (one Group operator ingesting every monitored stream — the O(n)
// hotspot, exactly analogous to the heartbeat-home and checkpoint-owner
// hotspots PRs 3–4 eliminated) versus as a DHT-routed partial/merge
// tree: leaves pre-aggregate next to each source, interiors ingest at
// most degree partial streams each. The table reports per-peer operator
// ingest max, mean and max/mean over the candidate aggregation hosts.
//
// Completeness table: the tree under churn — interior-node crashes
// mid-window, graceful leaves, runtime joins (interiors re-parent onto
// the new DHT owners) — with the replay layer on must deliver every
// windowed count exactly, byte-identical to the flat no-churn baseline
// at the same seed. A replay-off crash row shows the contrast: without
// the PR 2 machinery an interior crash destroys its open windows.
func runX4(s Scale) (*Result, error) {
	res := &Result{
		ID:    "X4",
		Claim: `"statistics gathering (e.g. to establish usage-based rankings)" (§2) — extension: windowed group-by aggregation runs in-network along a DHT-routed tree, bounding every peer's ingest near the mean while crash/leave/join churn leaves the counts byte-identical to the flat single-aggregator baseline`,
	}
	sources, workers, events := 12, 6, 192
	window := 24 * time.Second
	crashRates := []int{0, 24, 16}
	growFrom, joinEvery := 3, 24
	leaveEvery := 21
	if s == Quick {
		sources, workers, events = 6, 3, 64
		window = 16 * time.Second
		crashRates = []int{0, 16}
		growFrom, joinEvery = 2, 16
		leaveEvery = 13
	}

	base := func(mode string) workload.AggConfig {
		cfg := workload.DefaultAgg()
		cfg.Mode = mode
		cfg.Sources = sources
		cfg.Workers = workers
		cfg.Events = events
		cfg.Window = window
		return cfg
	}
	run := func(cfg workload.AggConfig) (*workload.AggReport, error) {
		return workload.Run(&cfg)
	}

	// Per-peer ingest: flat hotspot vs tree, no churn (clean counters).
	ingest := NewTable("per-peer operator ingest, flat aggregator vs DHT-routed tree (no churn)",
		"deployment", "events", "windows", "max ingest/peer", "mean/peer", "max versus mean", "completeness")
	holds := true
	flatRep, err := run(base("flat"))
	if err != nil {
		return nil, err
	}
	treeRep, err := run(base("tree"))
	if err != nil {
		return nil, err
	}
	for _, row := range []struct {
		name string
		rep  *workload.AggReport
	}{{"flat (single Group)", flatRep}, {"tree (degree 3)", treeRep}} {
		ingest.AddRow(row.name, row.rep.Driven, row.rep.Windows, row.rep.IngestMax,
			fmt.Sprintf("%.1f", row.rep.IngestMean),
			fmt.Sprintf("%.2fx", row.rep.IngestRatio()),
			fmt.Sprintf("%.0f%%", row.rep.Completeness()*100))
	}
	res.Tables = append(res.Tables, ingest)
	baseline := fmt.Sprint(flatRep.Records)
	// The acceptance line: identical results, and the tree bounds the
	// hottest peer near the mean (≤3× at full scale) while the flat
	// aggregator's hotspot scales with the fan-in.
	holds = holds && flatRep.Completeness() == 1 && treeRep.Completeness() == 1 &&
		fmt.Sprint(treeRep.Records) == baseline &&
		treeRep.IngestMax < flatRep.IngestMax &&
		treeRep.IngestRatio() <= 3.01 &&
		treeRep.IngestRatio() < flatRep.IngestRatio()

	// Completeness under churn: tree mode, replay on, byte-identity
	// against the flat no-churn baseline at the same seed.
	churn := NewTable("tree-mode windowed-count completeness under churn (replay on)",
		"scenario", "crashes", "leaves", "joins", "repairs", "replayed", "completeness", "identical to flat")
	addRow := func(name string, cfg workload.AggConfig, wantCrashes, wantLeaves, wantJoins bool) error {
		rep, err := run(cfg)
		if err != nil {
			return err
		}
		same := fmt.Sprint(rep.Records) == baseline
		churn.AddRow(name, rep.Crashes, rep.Leaves, rep.Joins, rep.Repairs+rep.LeaveRepairs,
			rep.Replayed, fmt.Sprintf("%.0f%%", rep.Completeness()*100), same)
		holds = holds && rep.Completeness() == 1 && same
		if wantCrashes {
			holds = holds && rep.Crashes > 0 && rep.Replayed > 0 && rep.Repairs > 0
		}
		if wantLeaves {
			holds = holds && rep.Leaves > 0 && rep.LeaveRepairs > 0
		}
		if wantJoins {
			holds = holds && rep.Joins == cfg.Workers-cfg.GrowFrom
		}
		return nil
	}
	for _, rate := range crashRates {
		cfg := base("tree")
		cfg.Replay = true
		cfg.CrashEvery = rate
		name := "no churn"
		if rate > 0 {
			name = fmt.Sprintf("interior crash every %d events", rate)
		}
		if err := addRow(name, cfg, rate > 0, false, false); err != nil {
			return nil, err
		}
	}
	{
		cfg := base("tree")
		cfg.Replay = true
		cfg.LeaveEvery = leaveEvery
		if err := addRow(fmt.Sprintf("graceful leave every %d events", leaveEvery), cfg, false, true, false); err != nil {
			return nil, err
		}
	}
	{
		cfg := base("tree")
		cfg.Replay = true
		cfg.GrowFrom = growFrom
		cfg.JoinEvery = joinEvery
		if err := addRow(fmt.Sprintf("grow %d→%d workers (interiors re-parent)", growFrom, workers), cfg, false, false, true); err != nil {
			return nil, err
		}
	}
	res.Tables = append(res.Tables, churn)

	// The contrast row: replay off, an interior crash destroys its open
	// windows — the lossless rows above are the PR 2 machinery working,
	// not the scenario being too gentle.
	contrast := NewTable("interior crash without the replay layer (the contrast)",
		"scenario", "crashes", "completeness")
	cfg := base("tree")
	cfg.CrashEvery = crashRates[len(crashRates)-1]
	if cfg.CrashEvery == 0 {
		cfg.CrashEvery = 16
	}
	lossy, err := run(cfg)
	if err != nil {
		return nil, err
	}
	contrast.AddRow("tree, replay off", lossy.Crashes, fmt.Sprintf("%.0f%%", lossy.Completeness()*100))
	holds = holds && lossy.Crashes > 0 && lossy.Completeness() < 1
	res.Tables = append(res.Tables, contrast)

	// Accuracy vs bytes: the same distinct-users query computed exactly
	// (set monoid — the partial state is the whole value set) versus as a
	// HyperLogLog sketch (constant-bounded partials). Sketch error here
	// is deterministic — the registers depend only on the value set — so
	// the ≤2% gate is a reproducible acceptance line, not a coin flip.
	users := 64
	sketch := NewTable(fmt.Sprintf("distinct-count over %d users: exact set vs HyperLogLog sketch (tree mode)", users),
		"variant", "groups", "crashes", "completeness", "max rel err", "mean rel err", "bytes on wire")
	addSketchRow := func(name string, cfg workload.AggConfig) (*workload.AggReport, error) {
		cfg.Users = users
		rep, err := run(cfg)
		if err != nil {
			return nil, err
		}
		maxRE, meanRE := "exact", "exact"
		if rep.SketchGroups > 0 {
			maxRE = fmt.Sprintf("%.2f%%", rep.MaxRelErr*100)
			meanRE = fmt.Sprintf("%.2f%%", rep.MeanRelErr*100)
		}
		sketch.AddRow(name, rep.ExpectedGroups, rep.Crashes,
			fmt.Sprintf("%.0f%%", rep.Completeness()*100), maxRE, meanRE, rep.Traffic.Bytes)
		holds = holds && rep.Completeness() == 1
		if rep.SketchGroups > 0 {
			holds = holds && rep.MaxRelErr <= 0.02
		}
		return rep, nil
	}
	{
		cfg := base("tree")
		cfg.Fn = "set"
		if _, err := addSketchRow("exact (set monoid)", cfg); err != nil {
			return nil, err
		}
	}
	{
		cfg := base("tree")
		cfg.Fn = "distinct"
		rep, err := addSketchRow("HyperLogLog sketch", cfg)
		if err != nil {
			return nil, err
		}
		holds = holds && rep.SketchGroups == rep.ExpectedGroups
	}
	{
		cfg := base("tree")
		cfg.Fn = "distinct"
		cfg.Replay = true
		cfg.CrashEvery = crashRates[len(crashRates)-1]
		if cfg.CrashEvery == 0 {
			cfg.CrashEvery = 16
		}
		rep, err := addSketchRow("HyperLogLog, interior crashes (replay on)", cfg)
		if err != nil {
			return nil, err
		}
		holds = holds && rep.Crashes > 0
	}
	res.Tables = append(res.Tables, sketch)

	res.Notes = append(res.Notes,
		"tree construction: PartialAgg leaves co-located with each source (raw events never cross the network), MergeAgg interiors placed by DHT key routing with fan-in <= degree, Final root re-emits the flat operator's records (docs/AGGREGATION.md)",
		"repair re-derives an interior's host from its routing key against the current ring; joins and graceful leaves re-parent interiors the same way (System.RebalanceAggTrees)",
		"exactly-once across interior migrations rides the PR 2 cursor+checkpoint machinery: partial-state snapshots restore, inputs replay from checkpointed cursors, downstream cursors deduplicate the overlap",
		"counts are commutative deltas, so partials may split across emissions and merge in any order without changing the final windows — the algebraic property the whole tree rests on",
		fmt.Sprintf("byte-identity is checked against the flat no-churn baseline at the same seed: %d records", len(flatRep.Records)),
		"accuracy vs bytes: each HLL estimate is scored against the exact distinct count replayed from the drive schedule; partial-state size is where the sketch pays off — the set monoid's partials grow with the value set while HLL is bounded at ~8 KB dense (at this toy cardinality the exact sets are still small, so the wire totals stay comparable; the bound is the point)")
	res.Holds = holds
	return res, nil
}
