package peer

import (
	"maps"
	"slices"
	"time"

	"p2pm/internal/stream"
	"p2pm/internal/telemetry"
)

// sysMetrics are the registry handles only the System feeds: the Step
// clock and the pull-style gauges. (What the layers count — simnet, DHT,
// gossip, the per-peer loops — is their own fields, exported by Attach.)
// Nil when telemetry is disabled, the default: Step then reads no wall
// clock.
type sysMetrics struct {
	reg *telemetry.Registry

	// Step loop: wall-clock time one Step takes (detectors, sweeps,
	// checkpoints, hooks) — the latency the self-adaptive controllers
	// add to the virtual-time drive.
	steps  *telemetry.Counter
	stepNs *telemetry.Histogram

	// Stream layer, updated pull-style at snapshot time.
	channels       *telemetry.Gauge
	queueDepth     *telemetry.Gauge
	replayBuffered *telemetry.Gauge
	replayTrimmed  *telemetry.Gauge
	replayedItems  *telemetry.Gauge

	// Subscription databases and plan memos (pipeline.go): tasks and
	// entries over all managers, pull-style; the hits are System.memoHits.
	tasks       *telemetry.Gauge
	memoEntries *telemetry.Gauge

	// Aggregation-tree ingest, folded from AggLoad (the programmatic
	// snapshot keeps its API; this is the same data on the registry).
	aggMax       *telemetry.Gauge
	aggMeanMilli *telemetry.Gauge
}

// instrumentTelemetry wires the system into its configured registry:
// simnet and DHT counters, the Step histogram, the pull-style stream
// and aggregation collectors, and (with an Addr) the HTTP endpoint.
// Called from NewSystem after normalization; no-op when telemetry is
// disabled.
func (s *System) instrumentTelemetry() error {
	tc := s.cfg.Telemetry
	if !tc.enabled() {
		return nil
	}
	reg := tc.Registry
	s.Net.Instrument(reg)
	s.Ring.Instrument(reg)
	s.tele = &sysMetrics{
		reg:    reg,
		steps:  reg.Counter("system_steps_total"),
		stepNs: reg.Histogram("system_step_ns", telemetry.ExpBounds(1000, 10, 8)),

		channels:       reg.Gauge("stream_channels"),
		queueDepth:     reg.Gauge("stream_queue_depth"),
		replayBuffered: reg.Gauge("stream_replay_buffered"),
		replayTrimmed:  reg.Gauge("stream_replay_trimmed"),
		replayedItems:  reg.Gauge("stream_replayed_items"),
		tasks:          reg.Gauge("subscription_tasks"),
		memoEntries:    reg.Gauge("plan_memo_entries"),

		aggMax:       reg.Gauge("agg_interior_ingest_max"),
		aggMeanMilli: reg.Gauge("agg_interior_ingest_mean_milli"),
	}
	reg.Attach("plan_memo_hits_total", &s.memoHits)
	reg.OnCollect(s.collectTelemetry)
	if tc.Addr != "" {
		srv, err := telemetry.Serve(tc.Addr, reg)
		if err != nil {
			return err
		}
		s.teleSrv = srv
	}
	return nil
}

// collectTelemetry is the snapshot-time hook: it refreshes the
// pull-style gauges from the live system. Registration inside the hook
// is fine (snapshots are not a hot path) and the registry's
// cardinality guard bounds the per-peer series.
func (s *System) collectTelemetry() {
	t := s.tele
	s.mu.Lock()
	chans := slices.Collect(maps.Values(s.channels))
	peers := slices.Collect(maps.Values(s.peers))
	// What waits for a consumer waits in the queue its edge delivers into:
	// an operator input, a result reader, a BY subscribe target's Incoming
	// queue (which two edges may share).
	queues := make(map[*stream.Queue]bool)
	for _, es := range s.edges {
		for _, e := range es {
			if e.queue != nil {
				queues[e.queue] = true
			}
		}
	}
	trimmed := s.trimmed
	s.mu.Unlock()
	depth, buffered := 0, 0
	for q := range queues {
		depth += q.Len()
	}
	for _, c := range chans {
		buffered += c.ReplayLen()
		trimmed += c.ReplayTrimmed()
	}
	t.channels.Set(int64(len(chans)))
	t.queueDepth.Set(int64(depth))
	t.replayBuffered.Set(int64(buffered))
	t.replayTrimmed.Set(int64(trimmed))
	t.replayedItems.Set(int64(s.ReplayedItems()))
	tasks, entries := 0, 0
	for _, p := range peers {
		p.mu.Lock()
		tasks += len(p.tasks)
		entries += len(p.memo)
		p.mu.Unlock()
	}
	t.tasks.Set(int64(tasks))
	t.memoEntries.Set(int64(entries))

	// Per-peer loops and per-endpoint taps: the two buffers the data path
	// grew with the event loops, read where they live.
	s.loopMu.Lock()
	for peer, ex := range s.loops {
		t.reg.Gauge("loop_runq_high_water", telemetry.L("peer", peer)).Set(int64(ex.Stats().RunQueueHighWater))
	}
	for k, tap := range s.taps {
		depth, high := tap.Ring()
		labels := []telemetry.Label{telemetry.L("peer", k.peer), telemetry.L("dir", k.dir.String())}
		t.reg.Gauge("tap_ring_depth", labels...).Set(int64(depth))
		t.reg.Gauge("tap_ring_high_water", labels...).Set(int64(high))
	}
	s.loopMu.Unlock()

	load := s.AggLoad()
	for peer, items := range load.ByPeer() {
		t.reg.Gauge("agg_ingest_items", telemetry.L("peer", peer)).Set(int64(items))
	}
	max, mean := load.Interiors().MaxMean()
	t.aggMax.Set(int64(max))
	t.aggMeanMilli.Set(int64(mean * 1000))
}

// TelemetryAddr returns the bound address of the system's metrics
// endpoint ("" when Telemetry.Addr was not configured). With ":0" this
// is where the free port landed.
func (s *System) TelemetryAddr() string {
	if s.teleSrv == nil {
		return ""
	}
	return s.teleSrv.Addr
}

// CloseTelemetry shuts down the metrics endpoint, if one is serving.
// The registry and its handles keep working.
func (s *System) CloseTelemetry() error {
	if s.teleSrv == nil {
		return nil
	}
	return s.teleSrv.Close()
}

// observeStep records one Step's wall-clock latency.
func (s *System) observeStep(start time.Time) {
	if s.tele == nil {
		return
	}
	s.tele.steps.Inc()
	s.tele.stepNs.Observe(time.Since(start).Nanoseconds())
}

// exportDetector exports the detector's protocol counters and, as one
// more snapshot-time pull, its two level gauges. No-op when telemetry
// is disabled.
func (s *System) exportDetector(g *GossipDetector) {
	if s.tele == nil {
		return
	}
	reg := s.tele.reg
	reg.Attach("gossip_probes_total", &g.probes)
	reg.Attach("gossip_indirect_probes_total", &g.indirect)
	reg.Attach("gossip_suspicions_total", &g.suspicions)
	reg.Attach("gossip_deaths_total", &g.deaths)
	healthMax, suspects := reg.Gauge("gossip_health_max"), reg.Gauge("gossip_suspects")
	reg.OnCollect(func() {
		h, n := g.levels()
		healthMax.Set(int64(h))
		suspects.Set(int64(n))
	})
}
