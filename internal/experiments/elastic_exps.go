package experiments

import (
	"fmt"

	"p2pm/internal/workload"
)

func init() {
	register("X3", "elastic membership — grow-from-k-to-n completeness vs join rate, and per-peer checkpoint load with vs without virtual-node spreading (extension)", runX3)
}

// runX3 measures the elastic-membership extension, closing the two PR 3
// follow-ups together.
//
// Growth table: the worker pool starts at 4 and grows to full scale
// through the runtime join protocol (gossip dissemination with
// incarnation numbers — no pre-registration) while the crash schedule
// keeps killing the relay. With replay on the run must stay lossless at
// every join rate: joining is supposed to be invisible to the
// consumers.
//
// Spread table: many parallel pipelines mean many operator checkpoint
// keys. Classic single-token placement concentrates their write traffic
// on whichever ring owners the hash picks; virtual-node tokens plus
// bounded-load placement cap every peer's share at ~2× the mean. The
// table reports the steady-state (post-growth) per-peer checkpoint
// put/get load and the handoff volume each join cost.
func runX3(s Scale) (*Result, error) {
	res := &Result{
		ID:    "X3",
		Claim: `"P2P systems are characterized by their dynamicity: peers join and leave" (§1) — extension: membership is a runtime protocol, not a precondition; a pool growing from 4 workers to full scale stays lossless, and consistent-hash spreading keeps per-peer checkpoint load within 2× the mean`,
	}
	events, workers, growFrom := 120, 10, 4
	joinRates := []int{0, 12, 8} // 0 = spread evenly across the run
	pipelines, loadEvents, loadWorkers := 12, 60, 8
	if s == Quick {
		events, workers = 40, 6
		joinRates = []int{0, 8}
		// 5 pipelines × 2 checkpointed operators over 10 peers: the
		// bounded-load cap ceil(2K/n) is exactly 2× the mean, so the
		// structural guarantee is visible without ceil slack.
		pipelines, loadEvents, loadWorkers = 5, 40, 6
	}

	growth := NewTable("growing the pool from 4 workers to full scale under churn (replay on)",
		"join every", "detector", "joins", "crashes", "repairs", "completeness", "replayed", "mean detect (s)")
	holds := true
	for _, rate := range joinRates {
		cfg := workload.DefaultChurn()
		cfg.Workers = workers
		cfg.GrowFrom = growFrom
		cfg.JoinEvery = rate
		cfg.Events = events
		cfg.CrashEvery = 15
		cfg.Replay = true
		rep, err := workload.Run(&cfg)
		if err != nil {
			return nil, err
		}
		label := "spread evenly"
		if rate > 0 {
			label = fmt.Sprintf("%d events", rate)
		}
		growth.AddRow(label, "gossip", rep.Joins, rep.Crashes, rep.Repairs,
			fmt.Sprintf("%.0f%%", rep.Completeness()*100),
			rep.Replayed,
			fmt.Sprintf("%.1f", rep.DetectionLatency()))
		// The pool must actually reach full scale, every crash must be
		// detected and repaired, and the growth must be invisible to the
		// consumers: exactly 100% completeness via genuine retransmission.
		holds = holds && rep.Joins == workers-growFrom &&
			rep.Crashes > 0 &&
			rep.Repairs >= rep.Crashes &&
			rep.Completeness() == 1 &&
			rep.Replayed > 0
	}
	res.Tables = append(res.Tables, growth)

	// Checkpoint-load spreading: identical elastic growth (no crashes —
	// the measurement isolates placement), measured after the last join
	// so deployment and growth traffic stay out of the steady-state
	// window.
	spreadT := NewTable("steady-state per-peer checkpoint put/get load, classic vs spread placement",
		"placement", "ckpt ops", "max/peer", "mean/peer", "max versus mean", "handoffs")
	classicRatio := 0.0
	for _, spread := range []bool{false, true} {
		cfg := workload.DefaultChurn()
		cfg.Workers = loadWorkers
		cfg.GrowFrom = growFrom
		cfg.JoinEvery = 10
		cfg.Events = loadEvents
		cfg.CrashEvery = 0
		cfg.Replay = true
		cfg.Pipelines = pipelines
		cfg.Spread = spread
		lab, err := workload.New(&cfg)
		if err != nil {
			return nil, err
		}
		rep, err := lab.Run()
		if err != nil {
			return nil, err
		}
		load := lab.Sys.DB.CheckpointLoad()
		var total, max uint64
		for _, l := range load {
			total += l.Total()
			if l.Total() > max {
				max = l.Total()
			}
		}
		mean := float64(total) / float64(len(load))
		ratio := float64(max) / mean
		name := "classic (1 token)"
		if spread {
			name = "spread (32 tokens + 2x bound)"
		}
		spreadT.AddRow(name, total, max, fmt.Sprintf("%.1f", mean),
			fmt.Sprintf("%.2fx", ratio), lab.Sys.Ring.Handoffs())
		holds = holds && rep.Completeness() == 1 && total > 0
		if spread {
			// The acceptance line: bounded-load spreading keeps the
			// hottest peer within 2× the mean checkpoint load, and
			// strictly improves on the classic hotspot.
			holds = holds && ratio <= 2.01 && ratio < classicRatio
		} else {
			classicRatio = ratio
		}
	}
	res.Tables = append(res.Tables, spreadT)

	res.Notes = append(res.Notes,
		"join protocol: a new peer contacts any live seed, bootstraps its membership view, and is disseminated to every other view on piggybacked gossip with incarnation numbers — rejoin-after-death adopts an incarnation above the stale death rumor (docs/MEMBERSHIP.md)",
		"joined peers are immediately eligible for DHT key ownership and failover placement; the relay repeatedly migrates onto runtime-admitted workers",
		"same seed ⇒ byte-identical join/crash/dead/recover timelines (ChurnReport.Timeline), with joins enabled",
		"spreading: virtual-node tokens fragment ownership so a join hands off ~K/n keys (Handoffs column), and per-class bounded-load placement caps any peer's checkpoint share at ceil(2K/n) primaries",
		"the 2x guarantee is structural (consistent hashing with bounded loads), not statistical: it holds at any pool size")
	res.Holds = holds
	return res, nil
}
