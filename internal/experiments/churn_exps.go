package experiments

import (
	"fmt"

	"p2pm/internal/workload"
)

func init() {
	register("X2", "self-healing under churn — completeness and failover latency vs crash rate, by replay mode, plus detector survivability with the monitor peer partitioned away (extension)", runX2)
}

// runX2 measures the churn extension: a subscription whose relay
// operator is repeatedly killed while events flow. The monitor must
// detect each death, migrate the operator (ACME-style: the monitor
// tolerates the failures it observes), and keep delivering results.
//
// One axis, replay: off is lossy fail-stop (outage windows are the
// completeness loss), on retransmits every loss after migration.
// Detection is SWIM-style gossip with a quorum-confirmed membership view
// (docs/DETECTOR.md); the "detector" column names it.
//
// The survivability table is the reason detection is decentralized: the
// monitor peer — where a single-home detector would live — is
// partitioned away, then the relay actually crashes. Gossip detection
// keeps working: completeness stays 100% with replay.
func runX2(s Scale) (*Result, error) {
	res := &Result{
		ID:    "X2",
		Claim: `"P2P systems are characterized by their dynamicity: peers join and leave" (§1) — extension: the monitor self-heals under that dynamicity; with replay the healing is lossless at every crash rate, and decentralized (gossip) detection survives the loss of any single host`,
	}
	events := 120
	rates := []int{0, 30, 15, 8}
	partRate := 15
	if s == Quick {
		events, rates, partRate = 40, []int{0, 12}, 12
	}
	table := NewTable("churn rate vs result completeness and failover latency",
		"crash every", "replay", "detector", "crashes", "repairs", "completeness", "replayed", "mean detect (s)", "msgs", "dropped")
	holds := true
	for _, k := range rates {
		for _, replay := range []bool{false, true} {
			cfg := workload.DefaultChurn()
			cfg.Events = events
			cfg.CrashEvery = k
			cfg.Replay = replay
			rep, err := workload.Run(&cfg)
			if err != nil {
				return nil, err
			}
			label := "never"
			if k > 0 {
				label = fmt.Sprintf("%d events", k)
			}
			onOff := "off"
			if replay {
				onOff = "on"
			}
			table.AddRow(label, onOff, "gossip", rep.Crashes, rep.Repairs,
				fmt.Sprintf("%.0f%%", rep.Completeness()*100),
				rep.Replayed,
				fmt.Sprintf("%.1f", rep.DetectionLatency()),
				rep.Traffic.Messages, rep.Traffic.Dropped)
			switch {
			case k == 0:
				// The baseline must be perfect in every mode: no churn, no
				// loss, no deaths invented by the detector.
				holds = holds && rep.Completeness() == 1 && rep.Crashes == 0 && rep.Deaths == 0
			case replay:
				// The goal line: under churn, replay recovers every
				// outage window — completeness
				// is exactly 100% and the recovery is genuine
				// retransmission, not luck.
				holds = holds && rep.Crashes > 0 &&
					rep.Deaths == rep.Crashes &&
					rep.Repairs >= rep.Crashes &&
					rep.Completeness() == 1 &&
					rep.Replayed > 0
			default:
				// Lossy mode: every crash is detected and repaired, results
				// keep flowing, and the only loss is the outage windows.
				holds = holds && rep.Crashes > 0 &&
					rep.Deaths == rep.Crashes &&
					rep.Repairs >= rep.Crashes &&
					rep.Completeness() > 0.3 && rep.Completeness() < 1
			}
		}
	}
	res.Tables = append(res.Tables, table)

	// Detector survivability: the monitor peer is partitioned away early
	// in the run; the relay crash schedule continues. Replay is on — any
	// loss is a detection failure, not a transport one.
	surv := NewTable("detector survivability — home peer partitioned mid-run (replay on)",
		"detector", "crashes", "repairs", "completeness", "mean detect (s)", "deaths declared")
	cfg := workload.DefaultChurn()
	cfg.Events = events
	cfg.CrashEvery = partRate
	cfg.Replay = true
	cfg.PartitionHomeAfter = events / 8
	rep, err := workload.Run(&cfg)
	if err != nil {
		return nil, err
	}
	surv.AddRow("gossip", rep.Crashes, rep.Repairs,
		fmt.Sprintf("%.0f%%", rep.Completeness()*100),
		fmt.Sprintf("%.1f", rep.DetectionLatency()),
		rep.Deaths)
	// Gossip must still inject, detect and repair relay crashes with the
	// monitor cut off, ending lossless.
	holds = holds && rep.Crashes > 0 &&
		rep.Repairs >= rep.Crashes &&
		rep.Completeness() == 1
	res.Tables = append(res.Tables, surv)

	res.Notes = append(res.Notes,
		"replay off: loss per crash is bounded by the outage window (suspicion timeout × event rate); results driven while the relay is healthy always arrive",
		"replay on: the relay's input replays from the upstream retention buffer at re-deploy (resuming from the replicated checkpoint) and consumer cursors deduplicate the overlap — completeness 100% with bounded buffers",
		"gossip detection: each peer probes one random member per period (O(1)/peer, no hotspot), escalates through k proxies, and the supervisor acts on a quorum-confirmed view — no single point of blindness",
		"survivability: with the monitor peer partitioned away, gossip keeps detecting real crashes; the single-home heartbeat detector this replaced went blind there and killed the healthy peers (12% completeness at full scale when PR 18 removed it; docs/DETECTOR.md)",
		"failover prefers peers that announced a replica of the affected stream (Section 5's InChannel records)")
	res.Holds = holds
	return res, nil
}
