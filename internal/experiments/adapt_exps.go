package experiments

import (
	"fmt"
	"strings"

	"p2pm/internal/workload"
)

func init() {
	register("X6", "self-adaptive runtime — the monitor monitors itself: Lifeguard health scaling, load-driven interior re-chunking and P2PML-triggered control actions versus a static configuration under a diurnal+hotspot fault profile (extension)", runX6)
}

// runX6 measures the self-adaptation extension: the same deployment,
// the same seeded fault schedule (two slow-link phases for the worker
// hosting the hot interior, two real crash/recover cycles for the
// worker hosting the other one), run three ways — an undisturbed flat
// baseline (ground truth), a static configuration, and the adaptive
// runtime with all three control loops on.
//
// The adaptive run must kill nobody falsely while still confirming
// every real crash, split the hot interior at runtime (evening the
// post-split ingest), engage the quarantine and replication rules from
// a P2PML subscription over the detector's own telemetry, and publish
// records byte-identical to the flat baseline.
func runX6(s Scale) (*Result, error) {
	res := &Result{
		ID:    "X6",
		Claim: `"the P2P monitoring system should itself be monitored" (§6) — extension: the monitor's own telemetry is a monitored stream, and control loops subscribed to it retune the runtime live: Lifeguard-style health scaling keeps delayed-but-alive peers alive, a load controller re-chunks the hot aggregation interior mid-run, and trigger rules quarantine a flapping host and raise DHT replication — with output byte-identical to an undisturbed deployment`,
	}
	cfg := workload.DefaultAdapt()
	if s == Full {
		cfg.Events = 192
	}

	run := func(mode string) (*workload.AdaptReport, error) {
		c := cfg
		c.Mode = mode
		return workload.Run(&c)
	}
	flat, err := run("flat")
	if err != nil {
		return nil, err
	}
	static, err := run("static")
	if err != nil {
		return nil, err
	}
	adaptive, err := run("adaptive")
	if err != nil {
		return nil, err
	}
	if len(flat.Records) == 0 {
		return nil, fmt.Errorf("X6: flat baseline produced no records")
	}

	holds := true
	detection := NewTable("failure detection under the diurnal profile (same seed, same faults)",
		"mode", "false kills", "true kills", "repairs", "health peak", "replayed")
	for _, row := range []*workload.AdaptReport{static, adaptive} {
		detection.AddRow(row.Mode, row.FalseKills, row.TrueKills, row.Repairs, row.HealthPeak, row.Replayed)
	}
	res.Tables = append(res.Tables, detection)
	// The headline gate: the static detector false-kills delayed-but-
	// alive peers; the adaptive one kills nobody falsely and still
	// catches both real crashes.
	holds = holds && static.FalseKills >= 1 && static.TrueKills >= 1 &&
		adaptive.FalseKills == 0 && adaptive.TrueKills >= 1 &&
		adaptive.HealthPeak > 0 && static.HealthPeak == 0

	load := NewTable("hot-interior load (final-quarter ingest per first-level interior)",
		"mode", "splits", "max", "mean", "max versus mean")
	for _, row := range []*workload.AdaptReport{static, adaptive} {
		load.AddRow(row.Mode, row.Splits, row.PostMax,
			fmt.Sprintf("%.1f", row.PostMean), fmt.Sprintf("%.2fx", row.PostRatio()))
	}
	res.Tables = append(res.Tables, load)
	holds = holds && static.Splits == 0 && adaptive.Splits >= 1 &&
		adaptive.PostRatio() <= static.PostRatio()

	actions := NewTable("control actions from the sysmon subscription",
		"mode", "quarantine engages", "replication raises", "quarantined at teardown")
	for _, row := range []*workload.AdaptReport{static, adaptive} {
		actions.AddRow(row.Mode, row.Quarantines, row.ReplRaises, strings.Join(row.Quarantined, " "))
	}
	res.Tables = append(res.Tables, actions)
	quarFlap := false
	for _, q := range adaptive.Quarantined {
		quarFlap = quarFlap || q == adaptive.Flapper
	}
	holds = holds && adaptive.Quarantines >= 1 && adaptive.ReplRaises >= 1 && quarFlap &&
		static.Quarantines == 0 && static.ReplRaises == 0

	output := NewTable("output integrity versus the undisturbed flat baseline",
		"mode", "records", "completeness", "byte-identical")
	for _, row := range []*workload.AdaptReport{flat, static, adaptive} {
		output.AddRow(row.Mode, len(row.Records),
			fmt.Sprintf("%.0f%%", row.Completeness(flat.Records)*100),
			row.Identical(flat.Records))
	}
	res.Tables = append(res.Tables, output)
	holds = holds && adaptive.Completeness(flat.Records) == 1 && adaptive.Identical(flat.Records)

	res.Notes = append(res.Notes,
		fmt.Sprintf("fault schedule: slow peer %s (hosting the hot interior) gets %v extra delay and %.0f%% loss on every link in two diurnal phases; flapper %s (hosting the other interior) crashes and recovers twice",
			adaptive.SlowPeer, cfg.SlowDelay, cfg.SlowDrop*100, adaptive.Flapper),
		"adaptive detection: each view keeps a Lifeguard health score raised by its own failed probes, by being suspected, and by having its own suspicions refuted; probe timeouts and suspicion windows scale by (1 + health), and the score relaxes only after a full clean probe rotation (docs/ADAPTIVE.md)",
		"re-chunking: the load controller watches per-interior ingest via System.AggLoad and splits the hot interior through the same exactly-once transaction the tests drive directly (System.SplitInterior)",
		"trigger rules: deaths and recoveries are ActiveXML repository updates on the manager, monitored by an ordinary P2PML subscription; an adapt.Loop with hysteresis quarantines the flapper from aggregation hosting and raises DHT replication during the death burst — actuation through the same Tuning surface operators use",
		fmt.Sprintf("all three modes publish against the same seeded drive: %d records in the flat ground truth", len(flat.Records)),
	)
	res.Holds = holds
	return res, nil
}
