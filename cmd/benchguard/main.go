// Command benchguard is the CI bench-regression gate: it parses `go
// test -bench` output, aggregates each benchmark's best (minimum)
// ns/op across -count repetitions — the least-noise estimator — and
// compares the result against a committed baseline, failing when any
// guarded hot-path benchmark regressed beyond the threshold.
//
// Benchmarks that report memory (b.ReportAllocs or -benchmem) are also
// gated on allocs/op. Allocation counts are exact and machine-
// independent, so they are compared as they stand — no normalization —
// and any increase beyond 5% of the baseline count fails. B/op is
// recorded in the snapshots for the trajectory but not gated: it moves
// with allocator size classes across Go versions.
//
// The comparison is median-normalized by default: the median ns/op
// shift across all guarded benchmarks is treated as the machine-speed
// factor (a different runner class, CPU throttling, a busy host) and
// divided out before the threshold applies. A real hot-path regression
// moves one benchmark away from the pack; a slower machine moves them
// all together. `-no-normalize` compares absolute ns/op instead —
// only meaningful when baseline and run share identical hardware, and
// blind-spotted the other way: normalization cannot see a regression
// that slows every guarded benchmark uniformly.
//
// Usage:
//
//	go test -run '^$' -bench 'X|Y' -benchtime 100x -count 3 . | tee bench.txt
//	benchguard -in bench.txt -out BENCH_pr3.json                  # compare vs BENCH_baseline.json
//	benchguard -in bench.txt -update                              # (re)write the baseline
//	benchguard -in bench.txt -baseline other.json -threshold 0.5  # custom gate
//
// The exit code is 1 on regression, 2 on usage errors. Benchmarks
// present in the baseline but missing from the run are reported but do
// not fail the gate (CI may guard a subset); new benchmarks are added
// to the output snapshot for the next baseline refresh.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
)

// allocTolerance is the increase in allocs/op the gate lets through: 5%
// of an exact count, so a benchmark at 20 allocs/op or fewer may not gain
// a single one.
const allocTolerance = 0.05

// Snapshot is the persisted form: benchmark name → best ns/op, plus
// allocs/op and B/op for the benchmarks that report them.
type Snapshot struct {
	// Note documents provenance (host class, flags); informational.
	Note string `json:"note,omitempty"`
	// GoVersion records the toolchain that produced the numbers.
	GoVersion string `json:"goVersion,omitempty"`
	// Benchmarks maps the benchmark name (GOMAXPROCS suffix stripped)
	// to its minimum observed ns/op.
	Benchmarks map[string]float64 `json:"benchmarks"`
	// Allocs and Bytes map the same names to the minimum observed
	// allocs/op and B/op.
	Allocs map[string]float64 `json:"allocs,omitempty"`
	Bytes  map[string]float64 `json:"bytes,omitempty"`
}

// benchLine matches one `go test -bench` result line, e.g.
// "BenchmarkXMLParse-8   	     100	    123456 ns/op	..."
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// memFields match the -benchmem columns that may follow on the line.
var (
	bytesField  = regexp.MustCompile(`\s([0-9.]+) B/op`)
	allocsField = regexp.MustCompile(`\s([0-9.]+) allocs/op`)
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "file with `go test -bench` output (default stdin)")
	baseline := fs.String("baseline", "BENCH_baseline.json", "committed baseline snapshot")
	outFile := fs.String("out", "", "write the run's snapshot here (e.g. BENCH_pr3.json)")
	threshold := fs.Float64("threshold", 0.25, "maximum tolerated slowdown ratio (0.25 = +25% ns/op)")
	update := fs.Bool("update", false, "rewrite the baseline from this run instead of comparing")
	note := fs.String("note", "", "provenance note stored in written snapshots")
	noNormalize := fs.Bool("no-normalize", false, "compare absolute ns/op instead of dividing out the median (machine-speed) shift")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer f.Close()
		src = f
	}
	cur, err := parseBench(src)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(cur.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchguard: no benchmark results in input")
		return 2
	}
	cur.GoVersion = runtime.Version()
	cur.Note = *note

	if *outFile != "" {
		if err := writeSnapshot(*outFile, cur); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if *update {
		if err := writeSnapshot(*baseline, cur); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stdout, "benchguard: baseline %s updated with %d benchmarks\n", *baseline, len(cur.Benchmarks))
		return 0
	}

	base, err := readSnapshot(*baseline)
	if err != nil {
		fmt.Fprintf(stderr, "benchguard: cannot read baseline %s: %v (run with -update to create it)\n", *baseline, err)
		return 2
	}
	machine := 1.0
	if !*noNormalize {
		var ratios []float64
		for name, baseNs := range base.Benchmarks {
			if curNs, ok := cur.Benchmarks[name]; ok {
				ratios = append(ratios, curNs/baseNs)
			}
		}
		// The median is only a machine-speed estimate when a regression
		// in one benchmark cannot drag it: with fewer than 3 shared
		// benchmarks the "median" IS the (possibly regressed) sample,
		// and normalizing by it would wave any slowdown through.
		if len(ratios) >= 3 {
			machine = median(ratios)
			if machine != 1 {
				fmt.Fprintf(stdout, "  machine-speed factor ×%.2f (median shift across %d shared benchmarks, divided out; -no-normalize for absolute)\n",
					machine, len(ratios))
			}
		} else {
			fmt.Fprintf(stdout, "  only %d shared benchmark(s): comparing absolute ns/op (median normalization needs >= 3)\n", len(ratios))
		}
	}
	regressions := 0
	for _, name := range sortedNames(base.Benchmarks) {
		baseNs := base.Benchmarks[name]
		curNs, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Fprintf(stdout, "  skip  %-40s (not in this run)\n", name)
			continue
		}
		ratio := curNs / baseNs / machine
		status := "ok"
		if ratio > 1+*threshold {
			status = "REGRESSED"
			regressions++
		}
		fmt.Fprintf(stdout, "  %-9s %-40s base %12s  now %12s  (%+.1f%% normalized)\n",
			status, name, fmtNs(baseNs), fmtNs(curNs), (ratio-1)*100)
	}
	for _, name := range sortedNames(base.Allocs) {
		baseN := base.Allocs[name]
		curN, ok := cur.Allocs[name]
		if !ok {
			continue // not in this run, or run without memory stats: reported above
		}
		status := "ok"
		if curN > baseN*(1+allocTolerance) {
			status = "REGRESSED"
			regressions++
		}
		fmt.Fprintf(stdout, "  %-9s %-40s base %7.0f allocs/op  now %7.0f allocs/op\n", status, name, baseN, curN)
	}
	for _, name := range sortedNames(cur.Benchmarks) {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Fprintf(stdout, "  new   %-40s %12s (no baseline yet)\n", name, fmtNs(cur.Benchmarks[name]))
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stderr, "benchguard: %d row(s) regressed vs %s (ns/op beyond %.0f%%, allocs/op beyond %.0f%%)\n",
			regressions, *baseline, *threshold*100, allocTolerance*100)
		return 1
	}
	// A run sharing nothing with the baseline compared nothing: renamed
	// benchmarks or a drifted -bench regex must not pass as green.
	compared := 0
	for name := range base.Benchmarks {
		if _, ok := cur.Benchmarks[name]; ok {
			compared++
		}
	}
	if compared == 0 {
		fmt.Fprintf(stderr, "benchguard: no benchmark in this run matches the baseline %s — the gate guarded nothing (renamed benchmarks? refresh with -update)\n", *baseline)
		return 2
	}
	fmt.Fprintf(stdout, "benchguard: no regression beyond %.0f%% across %d compared benchmarks (%d in baseline)\n",
		*threshold*100, compared, len(base.Benchmarks))
	return 0
}

// parseBench extracts min ns/op — and, where reported, min allocs/op and
// B/op — per benchmark from `go test -bench` output (multiple -count
// repetitions collapse to their minimum).
func parseBench(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{Benchmarks: map[string]float64{}, Allocs: map[string]float64{}, Bytes: map[string]float64{}}
	start := 0
	for i := 0; i <= len(data); i++ {
		if i != len(data) && data[i] != '\n' {
			continue
		}
		line := string(data[start:i])
		start = i + 1
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		keepMin(snap.Benchmarks, m[1], m[2])
		if fm := bytesField.FindStringSubmatch(line); fm != nil {
			keepMin(snap.Bytes, m[1], fm[1])
		}
		if fm := allocsField.FindStringSubmatch(line); fm != nil {
			keepMin(snap.Allocs, m[1], fm[1])
		}
	}
	return snap, nil
}

// keepMin records a parsed column under name unless a smaller value is
// already there; text the regexps let through but ParseFloat rejects
// (such as "1.2.3") is skipped.
func keepMin(m map[string]float64, name, text string) {
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return
	}
	if old, ok := m[name]; !ok || v < old {
		m[name] = v
	}
}

func readSnapshot(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, err
	}
	if s.Benchmarks == nil {
		return nil, fmt.Errorf("%s holds no benchmarks", path)
	}
	return &s, nil
}

func writeSnapshot(path string, s *Snapshot) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// median returns the middle value (mean of the middle two for even
// counts); 1.0 for an empty set.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 1
	}
	sort.Float64s(v)
	mid := len(v) / 2
	if len(v)%2 == 1 {
		return v[mid]
	}
	return (v[mid-1] + v[mid]) / 2
}

func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fmtNs renders ns/op human-readably without pulling in a deps.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	}
	return fmt.Sprintf("%.0fns", ns)
}
