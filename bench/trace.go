package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"text/tabwriter"
	"time"
)

// span is one timed call the driver made into a layer. Spans are kept in
// memory and written out when the benchmark ends; the program under test
// is not instrumented (spans inside it are a later change).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the causing span, -1 for a root
	Item   int64  `json:"item"`   // spans of one item share it; -1 when not per-item
}

// tracer records spans. A nil *tracer is the untraced run: every method
// is a no-op, so workloads call it unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex // the collector and transport handlers trace concurrently with the sender
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

const noSpan = int32(-1)

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int32, item int64) int32 {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Item: item})
	t.mu.Unlock()
	return id
}

// end closes a span.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// setItem attributes a span to an item learned only after it began (a
// Pop does not know which item it will return).
func (t *tracer) setItem(id int32, item int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Item = item
	t.mu.Unlock()
}

// childTime returns, per span, the time its direct children cover.
// The caller holds t.mu.
func (t *tracer) childTime() []int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= s.Start {
			child[s.Parent] += s.End - s.Start
		}
	}
	return child
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalNS int64   `json:"total_ns"`
	SelfNS  int64   `json:"self_ns"` // total minus the time covered by child spans
	P50NS   float64 `json:"p50_ns"`
}

// table computes the per-layer table: self time is a span's duration
// minus the durations of its direct children (children of one parent do
// not overlap: each is a synchronous call made inside it).
func (t *tracer) table() []layerRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := t.childTime()
	type acc struct {
		row  layerRow
		durs []int64
	}
	byName := map[string]*acc{}
	for i, s := range t.spans {
		if s.End < s.Start {
			continue // never closed (a Pop cut short by shutdown)
		}
		a := byName[s.Name]
		if a == nil {
			a = &acc{row: layerRow{Name: s.Name}}
			byName[s.Name] = a
		}
		d := s.End - s.Start
		a.row.Count++
		a.row.TotalNS += d
		a.row.SelfNS += d - child[i]
		a.durs = append(a.durs, d)
	}
	rows := make([]layerRow, 0, len(byName))
	for _, a := range byName {
		a.row.P50NS = percentile(a.durs, 0.5)
		rows = append(rows, a.row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// selfMedian returns the median self time (ns) of the spans of one name.
func (t *tracer) selfMedian(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := t.childTime()
	var self []int64
	for i, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			self = append(self, s.End-s.Start-child[i])
		}
	}
	return percentile(self, 0.5)
}

// maxTraceSpans bounds the trace file: the table always covers every
// span, the file keeps the first maxTraceSpans of them.
const maxTraceSpans = 50_000

type traceFile struct {
	Workload  string     `json:"workload"`
	Seed      int64      `json:"seed"`
	Spans     []span     `json:"spans"`
	Truncated bool       `json:"truncated"`
	Layers    []layerRow `json:"layers"`
}

// write stores the trace under dir as trace-<workload>.json and prints
// the per-layer table.
func (t *tracer) write(dir, workload string, seed int64, human io.Writer) error {
	rows := t.table()
	tw := tabwriter.NewWriter(human, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "span\tcount\ttotal_ms\tself_ms\tp50_us")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.2f\n", r.Name, r.Count,
			float64(r.TotalNS)/1e6, float64(r.SelfNS)/1e6, r.P50NS/1e3)
	}
	tw.Flush()

	t.mu.Lock()
	f := traceFile{Workload: workload, Seed: seed, Spans: t.spans, Layers: rows}
	if len(f.Spans) > maxTraceSpans {
		f.Spans, f.Truncated = f.Spans[:maxTraceSpans], true
	}
	b, err := json.Marshal(f)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
