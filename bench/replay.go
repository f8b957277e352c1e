package main

import (
	"time"

	"p2pm/internal/telemetry"
)

// A layer replay pushes a workload's generated inputs through one
// layer's public API alone, on one goroutine, inside a span. timeOp and
// allocsOp are its two measuring primitives.

// timeOp measures f's cost per call in nanoseconds: rounds of n calls
// (n calibrated so a round lasts about a tenth of the budget) until the
// budget is spent, reporting the median round. i counts calls, so f can
// walk an input pool.
func timeOp(cfg *config, name string, f func(i int)) (nsPerOp float64, calls int) {
	id := cfg.Trace.begin("replay."+name, noSpan, -1)
	defer cfg.Trace.end(id)
	t0 := time.Now()
	f(0) // warm-up, and the calibration sample
	one := time.Since(t0)
	if one <= 0 {
		one = time.Nanosecond
	}
	n := int(cfg.ReplayBudget / 10 / one)
	if n < 1 {
		n = 1
	} else if n > 1<<16 {
		n = 1 << 16
	}
	var rounds []float64
	i := 1
	for deadline := time.Now().Add(cfg.ReplayBudget); len(rounds) < 3 || (time.Now().Before(deadline) && len(rounds) < 64); {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			f(i)
			i++
		}
		rounds = append(rounds, float64(time.Since(t0))/float64(n))
	}
	return medianFloat(rounds), i
}

// setTime records a timing row measured by timeOp, converting from
// nanoseconds into the row's unit (div = 1 for ns, 1e3 for us, 1e6 ms).
func setTime(cfg *config, out *run, name string, div float64, f func(i int)) {
	ns, calls := timeOp(cfg, name, f)
	out.set(name, ns/div, calls)
}

// timeSetups builds the system under test reps times (scaled), tearing
// the previous build down untimed in between, and records the median
// build time as setup_s. Only the last build — the one the run goes on
// to measure — gets the traced run's telemetry registry, so sequential
// systems never share series.
func timeSetups(cfg *config, res *run, reps int, teardown func(), build func(reg *telemetry.Registry) error) error {
	reps = cfg.scaled(reps, 1)
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown()
		}
		var reg *telemetry.Registry
		if i == reps-1 {
			reg = cfg.Registry
		}
		t0 := time.Now()
		if err := build(reg); err != nil {
			return err
		}
		secs = append(secs, time.Since(t0).Seconds())
		cfg.Speed.sample()
	}
	res.set("setup_s", medianFloat(secs)*cfg.Speed.take(), len(secs))
	return nil
}

// allocsOp returns heap allocations per call of f over n calls.
func allocsOp(n int, f func(i int)) float64 {
	f(0)
	m0 := markMem()
	for i := 1; i <= n; i++ {
		f(i)
	}
	allocs, _ := markMem().since(m0)
	return allocs / float64(n)
}
