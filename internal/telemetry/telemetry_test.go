package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// drive applies a fixed operation history to a fresh registry — the
// determinism tests require identical histories to produce identical
// bytes.
func drive(reg *Registry) {
	c := reg.Counter("wire_dropped_total", L("peer", "n1"))
	c.Add(7)
	reg.Counter("wire_dropped_total", L("peer", "n2")).Add(3)
	reg.Counter("transport_sent_total").Add(41)
	reg.Gauge("stream_queue_depth").Set(12)
	h := reg.Histogram("step_ns", ExpBounds(100, 10, 4))
	for _, v := range []int64{50, 150, 99999, 5_000_000} {
		h.Observe(v)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", L("a", "1"), L("b", "2"))
	b := reg.Counter("x_total", L("b", "2"), L("a", "1")) // label order irrelevant
	if a != b {
		t.Fatalf("same name+labels returned distinct handles")
	}
	if c := reg.Counter("x_total", L("a", "1")); c == a {
		t.Fatalf("different label set returned the same handle")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("kind clash did not panic")
		}
	}()
	reg.Gauge("x_total")
}

func TestConcurrentIncrement(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the workers register their own handle (exercising the
			// registration lock under race), half share one.
			c := reg.Counter("conc_total", L("shard", fmt.Sprint(w%2)))
			g := reg.Gauge("conc_gauge")
			h := reg.Histogram("conc_hist", []int64{10, 100})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 200))
			}
		}(w)
	}
	wg.Wait()
	snap := reg.Snapshot()
	var total int64
	for _, m := range snap.Metrics {
		if m.Name == "conc_total" {
			total += m.Value
		}
	}
	if total != workers*perWorker {
		t.Fatalf("lost increments: %d != %d", total, workers*perWorker)
	}
	if m, ok := snap.Get("conc_gauge"); !ok || m.Value != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", m.Value, workers*perWorker)
	}
	if m, ok := snap.Get("conc_hist"); !ok || m.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", m.Count, workers*perWorker)
	}
}

func TestSnapshotDeterminism(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	drive(a)
	drive(b)
	for _, enc := range []struct {
		name string
		f    func(Snapshot) []byte
	}{
		{"json", Snapshot.JSON},
		{"prometheus", Snapshot.Prometheus},
	} {
		ea, eb := enc.f(a.Snapshot()), enc.f(b.Snapshot())
		if !bytes.Equal(ea, eb) {
			t.Errorf("%s: same ops, different bytes:\n%s\nvs\n%s", enc.name, ea, eb)
		}
		if len(ea) == 0 {
			t.Errorf("%s: empty encoding", enc.name)
		}
	}
	// Sorted output: names ascending, label sets ascending within a name.
	snap := a.Snapshot()
	for i := 1; i < len(snap.Metrics); i++ {
		if snap.Metrics[i-1].key() >= snap.Metrics[i].key() {
			t.Fatalf("snapshot not sorted at %d: %q then %q", i, snap.Metrics[i-1].key(), snap.Metrics[i].key())
		}
	}
}

func TestDelta(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total")
	g := reg.Gauge("g")
	h := reg.Histogram("h", []int64{10})
	c.Add(5)
	g.Set(3)
	h.Observe(4)
	prev := reg.Snapshot()
	c.Add(2)
	g.Set(-7)
	h.Observe(40)
	d := reg.Snapshot().Delta(prev)
	if m, _ := d.Get("c_total"); m.Value != 2 {
		t.Errorf("counter delta = %d, want 2", m.Value)
	}
	if m, _ := d.Get("g"); m.Value != -7 {
		t.Errorf("gauge in a delta keeps its level: got %d, want -7", m.Value)
	}
	if m, _ := d.Get("h"); m.Count != 1 || m.Sum != 40 || m.Buckets[0] != 0 || m.Buckets[1] != 1 {
		t.Errorf("histogram delta = %+v", m)
	}

	// A reset (fresh process re-registering the series) must not produce
	// a negative delta: the current value stands, per rate() convention.
	fresh := NewRegistry()
	fresh.Counter("c_total").Add(1)
	fresh.Histogram("h", []int64{10}).Observe(3)
	d = fresh.Snapshot().Delta(prev)
	if m, _ := d.Get("c_total"); m.Value != 1 {
		t.Errorf("counter delta across reset = %d, want 1", m.Value)
	}
	if m, _ := d.Get("h"); m.Count != 1 {
		t.Errorf("histogram delta across reset = %+v, want absolute values", m)
	}

	// Series unseen in prev pass through.
	fresh.Counter("new_total").Add(9)
	if m, _ := fresh.Snapshot().Delta(prev).Get("new_total"); m.Value != 9 {
		t.Errorf("new series delta = %d, want 9", m.Value)
	}
}

func TestCardinalityGuard(t *testing.T) {
	reg := NewRegistry()
	reg.SetMaxSeries(4)
	handles := make(map[*Counter]bool)
	for i := 0; i < 20; i++ {
		handles[reg.Counter("hot_total", L("peer", fmt.Sprintf("p%02d", i)))] = true
	}
	if len(handles) != 5 { // 4 real series + 1 shared overflow
		t.Fatalf("guard admitted %d handles, want 5", len(handles))
	}
	if reg.DroppedSeries() != 16 {
		t.Fatalf("dropped = %d, want 16", reg.DroppedSeries())
	}
	snap := reg.Snapshot()
	if _, ok := snap.Get("hot_total", overflowLabel); !ok {
		t.Fatalf("overflow series missing from snapshot")
	}
	if m, ok := snap.Get("telemetry_series_dropped_total"); !ok || m.Value != 16 {
		t.Fatalf("guard self-metric = %+v ok=%v", m, ok)
	}
	// The overflow handle still counts — increments are not lost.
	reg.Counter("hot_total", L("peer", "p19")).Add(3)
	if m, _ := reg.Snapshot().Get("hot_total", overflowLabel); m.Value != 3 {
		t.Fatalf("overflow series value = %d, want 3", m.Value)
	}
}

// TestAttachSumsAndIsIdempotent: a layer-owned counter attached to the
// registry is the series (no copy); two counters under one key report
// their sum; attaching the same pointer again counts it once; a kind
// clash still panics.
func TestAttachSumsAndIsIdempotent(t *testing.T) {
	reg := NewRegistry()
	var a, b Counter // zero values, owned by "the layer"
	a.Add(3)         // lifetime totals: counted before export
	reg.Attach("ring_puts_total", &a, L("peer", "n1"))
	reg.Attach("ring_puts_total", &a, L("peer", "n1"))
	a.Inc()
	get := func() int64 {
		m, ok := reg.Snapshot().Get("ring_puts_total", L("peer", "n1"))
		if !ok || m.Kind != KindCounter {
			t.Fatalf("ring_puts_total missing or wrong kind: %+v", m)
		}
		return m.Value
	}
	if got := get(); got != 4 || uint64(got) != a.Value() {
		t.Errorf("series = %d, accessor = %d, want both 4 (same pointer attached twice counts once)", got, a.Value())
	}
	reg.Attach("ring_puts_total", &b, L("peer", "n1"))
	b.Add(10)
	if got := get(); got != 14 {
		t.Errorf("two counters under one key = %d, want their sum 14", got)
	}
	// A different label set is a different series.
	reg.Attach("ring_puts_total", &b, L("peer", "n2"))
	if m, _ := reg.Snapshot().Get("ring_puts_total", L("peer", "n2")); m.Value != 10 {
		t.Errorf("n2 series = %d, want 10", m.Value)
	}
	// Attach onto a registry-owned counter sums with it, too.
	own := reg.Counter("mixed_total")
	own.Add(2)
	reg.Attach("mixed_total", &a)
	if m, _ := reg.Snapshot().Get("mixed_total"); m.Value != 6 {
		t.Errorf("registry-owned + attached = %d, want 6", m.Value)
	}
	if reg.Counter("mixed_total") != own {
		t.Error("Counter must keep returning the registry's own handle")
	}
	reg.Gauge("level")
	defer func() {
		if recover() == nil {
			t.Error("attaching a counter under a gauge's name must panic")
		}
	}()
	reg.Attach("level", &a)
}

func TestZeroAllocHotPath(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("z_total", L("peer", "n1"))
	var own Counter
	reg.Attach("z_attached_total", &own, L("peer", "n1"))
	if n := testing.AllocsPerRun(1000, func() { own.Inc(); own.Add(3) }); n != 0 {
		t.Errorf("attached Counter hot path allocates %.1f/op", n)
	}
	g := reg.Gauge("z")
	h := reg.Histogram("z_ns", ExpBounds(100, 10, 6))
	if n := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Errorf("Counter hot path allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(7); g.Add(-2) }); n != 0 {
		t.Errorf("Gauge hot path allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Errorf("Histogram hot path allocates %.1f/op", n)
	}
}

func TestPrometheusShape(t *testing.T) {
	reg := NewRegistry()
	drive(reg)
	text := string(reg.Snapshot().Prometheus())
	for _, want := range []string{
		"# TYPE wire_dropped_total counter",
		`wire_dropped_total{peer="n1"} 7`,
		"# TYPE step_ns histogram",
		`step_ns_bucket{le="+Inf"} 4`,
		"step_ns_count 4",
		"transport_sent_total 41",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, text)
		}
	}
	// Cumulative buckets: the +Inf bucket equals the count.
	if !strings.Contains(text, `step_ns_bucket{le="100"} 1`) {
		t.Errorf("cumulative bucket wrong:\n%s", text)
	}
}

func TestServeHTTP(t *testing.T) {
	reg := NewRegistry()
	drive(reg)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(b)
	}
	if text := get("/metrics"); !strings.Contains(text, "wire_dropped_total") {
		t.Errorf("/metrics missing counters:\n%s", text)
	}
	for _, path := range []string{"/metrics.json", "/metrics?format=json"} {
		if j := get(path); !strings.Contains(j, `"name":"wire_dropped_total"`) || !strings.HasPrefix(j, `{"metrics":[`) {
			t.Errorf("%s not JSON:\n%s", path, j)
		}
	}
}

func TestExpBounds(t *testing.T) {
	b := ExpBounds(100, 10, 4)
	want := []int64{100, 1000, 10000, 100000}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v", b)
		}
	}
}
