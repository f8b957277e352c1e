package peer

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"p2pm/internal/alerters"
	"p2pm/internal/dht"
	"p2pm/internal/operators"
	"p2pm/internal/stream"
	"p2pm/internal/telemetry"
	"p2pm/internal/transport"
	"p2pm/internal/wire"
	"p2pm/internal/xmltree"
)

// seriesShapes lists a snapshot's exported series as sorted, distinct
// "name kind label-keys" lines.
func seriesShapes(snap telemetry.Snapshot) []string {
	var out []string
	for _, m := range snap.Metrics {
		keys := make([]string, len(m.Labels))
		for i, l := range m.Labels {
			keys[i] = l.Key
		}
		out = append(out, strings.TrimSpace(fmt.Sprintf("%s %s %s", m.Name, m.Kind, strings.Join(keys, ","))))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestTelemetryEndToEnd scrapes a live System's HTTP metrics endpoint:
// Config.Telemetry.Addr brings up the exporter, Steps and monitored
// traffic move the instruments, and both export formats answer with
// them.
func TestTelemetryEndToEnd(t *testing.T) {
	const sources = 4
	cfg := DefaultConfig()
	cfg.Telemetry.Addr = "127.0.0.1:0"
	cfg.Telemetry.Registry = telemetry.NewRegistry() // keep Default clean
	sys, _ := aggWorld(t, cfg, sources, 2)
	defer sys.CloseTelemetry() //nolint:errcheck

	client := sys.Peer("client")
	for i := 0; i < 3; i++ {
		if _, err := client.Endpoint().Invoke(fmt.Sprintf("s%d", i%sources), "Q", nil); err != nil {
			t.Fatal(err)
		}
		sys.Step(time.Second)
	}

	addr := sys.TelemetryAddr()
	if addr == "" {
		t.Fatal("no bound telemetry address despite Config.Telemetry.Addr")
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		return string(b)
	}

	prom := get("/metrics")
	for _, want := range []string{"system_steps_total 3", "stream_channels", "system_step_ns_bucket", "simnet_messages_total"} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus export missing %q:\n%s", want, prom)
		}
	}
	js := get("/metrics.json")
	if !strings.Contains(js, `"name":"system_steps_total"`) || !strings.Contains(js, `"value":3`) {
		t.Errorf("json export missing the step counter:\n%s", js)
	}

	// The exported series of this run — name, kind, label keys — as a
	// build of PR 21 (before the registry attached to the layers' own
	// counters) lists them, plus the per-peer loop and per-tap ring series
	// of PR 24: a renamed, re-kinded or vanished series fails here.
	// tap_alerts_total, the tap's alert count per envelope flavour,
	// joined them later, the plan memo's two series after it, and the
	// subscription databases' size after those.
	want := []string{
		"agg_ingest_items gauge peer",
		"agg_interior_ingest_max gauge",
		"agg_interior_ingest_mean_milli gauge",
		"dht_cache_hits_total counter",
		"dht_gets_total counter",
		"dht_handoffs_total counter",
		"dht_hops_total counter",
		"dht_lookups_total counter",
		"dht_puts_total counter",
		"loop_items_total counter peer",
		"loop_runq_high_water gauge peer",
		"loop_steps_total counter peer",
		"loop_wakes_total counter peer",
		"plan_memo_entries gauge",
		"plan_memo_hits_total counter",
		"simnet_bytes_total counter",
		"simnet_dropped_total counter",
		"simnet_messages_total counter",
		"stream_channels gauge",
		"stream_queue_depth gauge",
		"stream_replay_buffered gauge",
		"stream_replay_trimmed gauge",
		"stream_replayed_items gauge",
		"subscription_tasks gauge",
		"system_step_ns histogram",
		"system_steps_total counter",
		"tap_alerts_total counter body,dir,peer",
		"tap_ring_depth gauge dir,peer",
		"tap_ring_high_water gauge dir,peer",
	}
	if got := seriesShapes(cfg.Telemetry.Registry.Snapshot()); !slices.Equal(got, want) {
		t.Errorf("exported series changed:\n got %q\nwant %q", got, want)
	}
}

// catalogKinds parses the metric catalog table of docs/TELEMETRY.md
// into series name → kind.
func catalogKinds(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/TELEMETRY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "## Metric catalog")
	if !ok {
		t.Fatal("docs/TELEMETRY.md has no metric catalog")
	}
	table, _, _ = strings.Cut(table, "\n## ")
	name := regexp.MustCompile("`([a-z_]+)`")
	out := map[string]string{}
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 7 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		kinds := strings.Split(cells[2], ",")
		for i, m := range name.FindAllStringSubmatch(cells[1], -1) {
			out[m[1]] = strings.TrimSpace(kinds[min(i, len(kinds)-1)])
		}
	}
	return out
}

// TestRegistryReadsTheLayersOwnCounters drives every layer that keeps
// counters — transport sends and a frame lost on a crashed link, DHT
// puts, gets, cache hits and a join's handoffs, an operator stepped
// and woken on a peer's loop, a tap's alert of each flavour, a plan-memo
// hit, gossip probes through to a declared death — and then walks the
// docs/TELEMETRY.md catalog:
// every counter a layer owns is exported under its documented name,
// kind and label keys, and reads exactly what the layer's own accessor
// reads, because it is the same variable. (The wire_* pair and the tcp
// backend are compared in internal/transport's test of the same name:
// an endpoint's decode stats have no accessor outside that package.)
func TestRegistryReadsTheLayersOwnCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig()
	cfg.Telemetry.Registry = reg
	cfg.DHT.LoadBound = 1.25
	sys := MustSystem(cfg)
	peers := []string{"p0", "p1", "p2", "p3", "p4"}
	for _, p := range peers {
		sys.MustAddPeer(p)
	}
	det := sys.StartGossipDetector(GossipOptions{Seed: 7, ProbeInterval: time.Second, Suspicion: 2 * time.Second})

	sn := transport.NewSimNet(sys.Net)
	sn.Instrument(reg)
	eps := map[string]*transport.SimEndpoint{}
	for _, p := range peers {
		eps[p] = sn.Endpoint(p)
		eps[p].Handle(func(string, wire.Message) {})
	}
	send := func(from, to string) {
		t.Helper()
		if err := eps[from].Send(to, &wire.Item{Stream: "s1@" + from, Seq: 1, XML: "<r/>"}); err != nil {
			t.Fatal(err)
		}
	}
	send("p0", "p1")
	send("p1", "p0")
	send("p0", "p2")

	for i := 0; i < 8; i++ {
		if err := sys.Ring.Put(fmt.Sprintf("k|%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.JoinPeer("late", "p0"); err != nil { // hands keys off
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the repeat is a read-cache hit
		if _, _, err := sys.Ring.Get("p0", "k|0"); err != nil {
			t.Fatal(err)
		}
	}

	// An operator on p0's loop, fed one item at a time until its parked
	// goroutine had to be woken for one.
	in, out := stream.NewQueue(), make(chan stream.Item)
	h := sys.executor("p0").Run(&operators.Union{}, []*stream.Queue{in}, func(it stream.Item) { out <- it })
	for i := 0; i < 1000 && sys.executor("p0").Stats().Wakes == 0; i++ {
		in.Push(stream.Item{Tree: xmltree.Elem("x")})
		<-out
	}
	in.Close()
	<-out // eos
	h.Wait()

	// A tap on p0's endpoint with a bare alerter and a body reader: the
	// call builds one alert of each flavour.
	sys.Peer("p0").Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("ok"), nil
	}, nil)
	tap := sys.tap("p0", alerters.Inbound)
	for _, body := range []bool{false, true} {
		defer tap.Attach("inCOM@p0", body, func(stream.Item) {})()
	}
	if _, err := sys.Peer("p1").Endpoint().Invoke("p0", "Q", nil); err != nil {
		t.Fatal(err)
	}
	sys.Quiesce()
	if bare, body := tap.Built(); bare != 1 || body != 1 {
		t.Errorf("one call built %d bare and %d body-carrying alerts, want 1 and 1", bare, body)
	}

	// Two subscriptions at p1 with one body: the second is a plan-memo
	// hit.
	for _, ch := range []string{"A", "B"} {
		task, err := sys.Peer("p1").Subscribe(`for $e in inCOM(<p>p2</p>) return <x c="{$e.caller}"/> by channel ` + ch)
		if err != nil {
			t.Fatal(err)
		}
		defer task.Stop()
	}

	sys.Net.Crash("p3")
	send("p0", "p3") // lost on the link
	for i := 0; i < 25 && det.deaths.Value() == 0; i++ {
		sys.Step(time.Second)
	}

	// What each layer's own accessor says, per exported series.
	epSum := func(f func(transport.Stats) uint64) func() uint64 {
		return func() (n uint64) {
			for _, ep := range eps {
				n += f(ep.Stats())
			}
			return n
		}
	}
	served := func(f func(dht.Load) uint64) func() uint64 {
		return func() (n uint64) {
			// The script's own key class and those of the stream
			// definitions the subscriptions publish and look up.
			for _, class := range []string{"k", "def", "alerter", "op", "sig", "replica", "kadop"} {
				for _, l := range sys.Ring.ServiceLoad(class) {
					n += f(l)
				}
			}
			return n
		}
	}
	loops := func(f func(operators.LoopStats) uint64) func() uint64 {
		return func() (n uint64) {
			sys.loopMu.Lock()
			defer sys.loopMu.Unlock()
			for _, ex := range sys.loops {
				n += f(ex.Stats())
			}
			return n
		}
	}
	taps := func() (n uint64) {
		sys.loopMu.Lock()
		defer sys.loopMu.Unlock()
		for _, tap := range sys.taps {
			bare, body := tap.Built()
			n += bare + body
		}
		return n
	}
	probes, indirect, _ := det.ProtocolCounters()
	lookups, hops := sys.Ring.Stats()
	totals := sys.Net.Totals()
	owned := map[string]func() uint64{
		"transport_sent_total":         epSum(func(s transport.Stats) uint64 { return s.Sent }),
		"transport_sent_bytes_total":   epSum(func(s transport.Stats) uint64 { return s.SentBytes }),
		"transport_recv_total":         epSum(func(s transport.Stats) uint64 { return s.Received }),
		"transport_recv_bytes_total":   epSum(func(s transport.Stats) uint64 { return s.ReceivedBytes }),
		"transport_dropped_total":      epSum(func(s transport.Stats) uint64 { return s.Dropped }),
		"simnet_messages_total":        func() uint64 { return totals.Messages },
		"simnet_bytes_total":           func() uint64 { return totals.Bytes },
		"simnet_dropped_total":         func() uint64 { return totals.Dropped },
		"dht_puts_total":               served(func(l dht.Load) uint64 { return l.Puts }),
		"dht_gets_total":               served(func(l dht.Load) uint64 { return l.Gets }),
		"dht_lookups_total":            func() uint64 { return lookups },
		"dht_hops_total":               func() uint64 { return hops },
		"dht_handoffs_total":           sys.Ring.Handoffs,
		"dht_cache_hits_total":         sys.Ring.ReadCacheHits,
		"loop_steps_total":             loops(func(l operators.LoopStats) uint64 { return l.Steps }),
		"loop_items_total":             loops(func(l operators.LoopStats) uint64 { return l.Items }),
		"loop_wakes_total":             loops(func(l operators.LoopStats) uint64 { return l.Wakes }),
		"tap_alerts_total":             taps,
		"gossip_probes_total":          func() uint64 { return probes },
		"gossip_indirect_probes_total": func() uint64 { return indirect },
		"gossip_suspicions_total":      det.suspicions.Value,
		"gossip_deaths_total":          det.deaths.Value,
		"plan_memo_hits_total":         sys.memoHits.Value,
	}
	snap := reg.Snapshot()
	perPeer := func(name string) bool {
		return strings.HasPrefix(name, "transport_") || strings.HasPrefix(name, "wire_")
	}
	// get sums a series over the endpoints, the loops or the taps, when
	// it is per-peer.
	summed := map[string]string{"loop": "peer", "tap": "body,dir,peer"} // family → label keys
	get := func(name string) (v uint64, ok bool) {
		family, _, _ := strings.Cut(name, "_")
		if keys, sum := summed[family]; sum {
			for _, m := range snap.Metrics {
				if m.Name != name {
					continue
				}
				var got []string
				for _, l := range m.Labels {
					got = append(got, l.Key)
				}
				if m.Kind != telemetry.KindCounter || strings.Join(got, ",") != keys {
					return 0, false
				}
				v, ok = v+uint64(m.Value), true
			}
			return v, ok
		}
		if !perPeer(name) {
			m, ok := snap.Get(name)
			return uint64(m.Value), ok && m.Kind == telemetry.KindCounter
		}
		for _, p := range peers {
			m, ok := snap.Get(name, telemetry.L("backend", "sim"), telemetry.L("peer", p))
			if !ok || m.Kind != telemetry.KindCounter {
				return 0, false
			}
			v += uint64(m.Value)
		}
		return v, true
	}

	catalog := catalogKinds(t)
	// Counters the catalog lists that no layer owns a field for: the
	// registry's own, and the Step counter beside its histogram.
	registryOwned := map[string]bool{"system_steps_total": true, "telemetry_series_dropped_total": true}
	for name, kind := range catalog {
		if kind != "counter" || registryOwned[name] {
			continue
		}
		got, ok := get(name)
		if !ok {
			t.Errorf("%s: not exported as a counter with the documented labels", name)
			continue
		}
		want, has := owned[name]
		switch {
		case has:
			if w := want(); got != w || w == 0 {
				t.Errorf("%s = %d, the layer's accessor reads %d (want equal and non-zero)", name, got, w)
			}
		case name == "transport_reconnects_total":
			if got != 0 {
				t.Errorf("%s = %d on the sim backend, want 0", name, got)
			}
		case strings.HasPrefix(name, "wire_"): // values: internal/transport's test
		default:
			t.Errorf("%s is in the catalog but this test knows no accessor for it", name)
		}
	}
	for name := range owned {
		if catalog[name] != "counter" {
			t.Errorf("%s is exported but docs/TELEMETRY.md's catalog does not list it as a counter", name)
		}
	}
	// Whatever else this run exports carries the catalog's kind.
	for _, m := range snap.Metrics {
		if kind, ok := catalog[m.Name]; !ok || kind != m.Kind.String() {
			t.Errorf("%s exported as %s, catalog says %q", m.Name, m.Kind, kind)
		}
	}
}

// TestQueueDepthCountsEdgeQueues: stream_queue_depth counts what waits in
// the queues the edges deliver into. Held between two items by Sync, a
// publisher that has not stepped shows every call pushed to its input;
// released, the same items wait in the result reader's queue; drained,
// nothing waits.
func TestQueueDepthCountsEdgeQueues(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig()
	cfg.Telemetry.Registry = reg
	sys := MustSystem(cfg)
	mon := sys.MustAddPeer("mon")
	sys.MustAddPeer("src").Endpoint().Register("ping", pong, nil)
	caller := sys.MustAddPeer("caller").Endpoint()
	task, err := mon.DeployPlan(watchPlan("src", "held"))
	if err != nil {
		t.Fatal(err)
	}
	defer task.Stop()
	depth := func() int64 {
		m, _ := reg.Snapshot().Get("stream_queue_depth")
		return m.Value
	}
	const calls = 5
	task.procs[task.Plan].handle.Sync(func() {
		for i := 0; i < calls; i++ {
			if _, err := caller.Invoke("src", "ping", nil); err != nil {
				t.Fatal(err)
			}
		}
		pollFor(t, func() bool { return depth() == calls })
	})
	waitFor(t, sys, func() bool { return task.Results().Len() == calls })
	if got := depth(); got != calls {
		t.Errorf("stream_queue_depth = %d with %d results unread, want %d", got, calls, calls)
	}
	for i := 0; i < calls; i++ {
		task.Results().Pop()
	}
	if got := depth(); got != 0 {
		t.Errorf("stream_queue_depth = %d with nothing waiting, want 0", got)
	}
}
