package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// record is one line of a -out file: a result line plus what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	resultLine
}

func appendResult(path, workload string, seed int64, trace bool, line resultLine) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := printJSONLine(f, record{workload, seed, trace, line}); err != nil {
		f.Close() //nolint:errcheck // the write error is the one to report
		return err
	}
	return f.Close()
}

// readResults groups the end-to-end values of a -out file by workload
// and metric.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if r.Trace {
			continue // per-layer rows have no bound to apply
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the driver's definition).
func quartiles(values []float64) (q1, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	med := medianFloat(values)
	if med == 0 || len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / med
}

// verdict applies a metric's bound to two sets of runs: worse or better
// when b's median moved by more than the bound, unresolved when either
// side's own spread is wider than the bound, same otherwise.
func verdict(m metric, a, b []float64) string {
	ma, mb := medianFloat(a), medianFloat(b)
	if ma == 0 {
		return "unresolved"
	}
	change := (mb - ma) / ma // > 0: grew
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return "unresolved"
	case change > m.Bound:
		return "worse"
	case change < -m.Bound:
		return "better"
	}
	return "same"
}

// compareFiles prints one row per (workload, end-to-end metric) present
// in both files.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian a\tmedian b\tchange\tspread a\tspread b\tbound\tverdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := medianFloat(va), medianFloat(vb)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n", wl.Name, m.Name,
				ma, mb, 100*change, 100*spread(va), 100*spread(vb), 100*m.Bound, verdict(m, va, vb))
		}
	}
	return tw.Flush()
}
