package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// smokeConfig is the benchmark at about 1/200 of its size.
func smokeConfig() *config {
	return &config{Seed: 7, Seconds: runSeconds / 200.0, Scale: 0.005, ReplayBudget: time.Millisecond, Speed: newSpeedometer()}
}

// TestSmoke runs all five workloads, plain and traced, at ~1/200 size:
// the oracles pass, every end-to-end metric comes out positive on every
// workload, and every per-layer metric is produced by the traced run of
// at least one workload — so tier-1 breaks when a refactor breaks the
// benchmark, not the nightly.
func TestSmoke(t *testing.T) {
	produced := map[string]bool{}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			res, err := w.Run(smokeConfig())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("oracle: %d of %d operations failed", res.Failed, res.Attempted)
			}
			line := res.line(endToEnd)
			for _, m := range endToEnd {
				if v := line.Metrics[m.Name]; !(v.Value > 0) || v.Unit != m.Unit {
					t.Errorf("%s = %v %s, want a positive number of %s", m.Name, v.Value, v.Unit, m.Unit)
				}
			}

			dir := t.TempDir()
			traced, err := tracedRun(w, smokeConfig(), dir, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Failed != 0 {
				t.Errorf("traced oracle: %d of %d operations failed", traced.Failed, traced.Attempted)
			}
			for name, v := range traced.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", name, v)
				}
				produced[name] = true
			}
			if _, ok := traced.Values["driver.trace_overhead_frac"]; !ok {
				t.Error("driver.trace_overhead_frac not reported")
			}
			var tf traceFile
			b, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 || len(tf.Layers) == 0 {
				t.Errorf("trace has %d spans, %d layer rows", len(tf.Spans), len(tf.Layers))
			}
		})
	}
	for _, m := range perLayer {
		if !produced[m.Name] {
			t.Errorf("per-layer metric %s: no workload's traced run produced it", m.Name)
		}
	}
}

// TestManifest checks that the workload and metric names the program
// emits are the ones BENCHMARK.json declares, and that the declarations
// stay inside the driver's limits.
func TestManifest(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&committed); err != nil {
		t.Fatal(err)
	}
	if want := declaredManifest(); !reflect.DeepEqual(committed, want) {
		t.Error("BENCHMARK.json differs from the declarations; regenerate it with: go run ./bench -manifest > BENCHMARK.json")
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(b))
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, limit 128", n)
	}
	seen := map[string]bool{}
	name := func(s string) {
		if len(s) > 64 || s == "" || strings.Trim(s, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-") != "" || strings.ContainsAny(s[:1], "_.-") {
			t.Errorf("name %q breaks the driver's naming rule", s)
		}
		if seen[s] {
			t.Errorf("name %q used twice", s)
		}
		seen[s] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		name(m.Name)
		if len(m.Unit) > 16 || m.Unit == "" || strings.Trim(m.Unit, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") != "" {
			t.Errorf("unit %q of %s breaks the driver's unit rule", m.Unit, m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestCompare pins the verdict rule and the quartile definition (Python's
// statistics.quantiles(values, n=4), which the driver uses).
func TestCompare(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	lower := metric{Name: "x", Better: "lower", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v} }
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{steady(100), steady(104), "same"},
		{steady(100), steady(115), "worse"},
		{steady(100), steady(110), "same"},
		{steady(100), steady(85), "better"},
		{steady(100), []float64{80, 100, 120, 140, 160}, "unresolved"},
	} {
		if got := verdict(lower, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	higher := metric{Name: "y", Better: "higher", Bound: 0.10}
	if got := verdict(higher, steady(100), steady(85)); got != "worse" {
		t.Errorf("higher-is-better metric that fell 15%%: %s, want worse", got)
	}

	// -compare end to end on two files written through -out.
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	line := func(v float64) resultLine {
		return resultLine{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"items_per_s": {v, "items/s"}}}
	}
	for _, v := range steady(100) {
		if err := appendResult(a, "filter-10k", 1, false, line(v)); err != nil {
			t.Fatal(err)
		}
		if err := appendResult(b, "filter-10k", 1, false, line(v*0.7)); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := compareFiles(&out, a, b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "items_per_s") {
		t.Errorf("compare output:\n%s", out.String())
	}
}
