// Command bench is the repository's end-to-end benchmark: five
// workloads over the monitor's public packages, seven end-to-end metrics
// every workload reports, and a traced run that gives the per-layer
// budget. BENCHMARK.json at the repository root declares it; README.md
// explains the choices.
//
//	go run ./bench -workload <name> -seed <n> [-seconds <s>] [-trace 1]
//	go run ./bench -list
//	go run ./bench -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"p2pm/internal/telemetry"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string
	// Run executes the workload once under cfg and returns its
	// end-to-end values (and, when cfg traces, the counter rows of the
	// per-layer table).
	Run func(cfg *config) (*run, error)
	// Replay pushes the workload's generated inputs through each layer
	// it exercises, alone, and returns the timing rows of the per-layer
	// table. Traced runs only.
	Replay func(cfg *config, out *run) error
}

// workloads are fixed by name; later issues cite them.
var workloads = []workload{
	{"filter-10k", "10k subscriptions in one filter.Filter with churn: preFilter, AES and YFilter do all the work here and none in the other four", runFilter, replayFilter},
	{"pipeline-sim", "canonical data path on simnet: soap hook, alerter, channel, link, operator goroutines, publisher, Results(); filter/wire/transport/DHT idle", runPipeline, replayPipeline},
	{"agg-sketch", "count/avg/distinct/freq trees over 16 sources: monoid, PartialAgg/MergeAgg and aggtree on the critical path, select/restructure off it", runAgg, replayAgg},
	{"transport-tcp", "wire codec + framing + loopback sockets behind the Transport seam; nothing of peer runs", runTransport, replayTransport},
	{"control-plane", "deploy-time layers (p2pml/algebra/reuse/kadop/dht) under 500 overlapping subscriptions, then Step/gossip/checkpoint/failover under churn", runControl, replayControl},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// config is one run's settings.
type config struct {
	Seed    int64
	Seconds float64 // measuring time of the timed part
	// Scale shrinks the structural sizes (subscriptions, live tasks,
	// setup repetitions); 1 is the benchmark, the smoke test uses 1/200.
	Scale float64
	// Trace is non-nil in the traced run; Registry is then wired into
	// every system the workload builds.
	Trace    *tracer
	Registry *telemetry.Registry
	// ReplayBudget is the measuring time of one layer-replay row.
	ReplayBudget time.Duration
	// Speed samples the machine's speed beside the timed phases.
	Speed *speedometer
	// Baseline is items_per_s of the untraced pass at the traced run's
	// size: what overhead rows compare against.
	Baseline float64
}

// scaled shrinks a structural size, never below min.
func (c *config) scaled(n, min int) int {
	v := int(float64(n)*c.Scale + 0.5)
	if v < min {
		return min
	}
	return v
}

// phase returns a share of the measuring time.
func (c *config) phase(share float64) time.Duration {
	return time.Duration(c.Seconds * share * float64(time.Second))
}

const traceDir = "bench/out"

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the input generators")
	seconds := fs.Float64("seconds", runSeconds, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1: traced run at one tenth of the size, reporting the per-layer metrics")
	out := fs.String("out", "", "append the result as one JSON line (with workload and seed) to this file, for -compare")
	list := fs.Bool("list", false, "print every metric with unit, bound and meaning")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as the declarations in this package define it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		printList(stdout)
		return 0
	case *printManifest:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(declaredManifest()); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	// A workload's live heap is a few MB, against which the collector
	// would run a cycle every few MB allocated: over a hundred cycles a
	// second, which no deployed peer sees, and which ties every timing to
	// how two cores schedule the collector's workers (and the
	// speedometer's samples to whether a cycle is running). A pointer-free
	// block that is never touched, so never resident, makes the heap the
	// size of a small deployment's.
	ballast := make([]byte, 64<<20)
	defer runtime.KeepAlive(ballast)
	cfg := &config{Seed: *seed, Seconds: *seconds, Scale: 1, ReplayBudget: 40 * time.Millisecond, Speed: newSpeedometer()}
	var (
		res  *run
		decl []metric
		err  error
	)
	if *trace != 0 {
		decl = perLayer
		res, err = tracedRun(w, cfg, traceDir, stdout)
	} else {
		decl = endToEnd
		res, err = w.Run(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", w.Name, *seed, *seconds, *trace)
	res.report(stdout, decl)
	for _, why := range res.Reasons {
		fmt.Fprintln(stdout, "FAILED:", why)
	}
	line := res.line(decl)
	if *out != "" {
		if err := appendResult(*out, w.Name, *seed, *trace != 0, line); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := printJSONLine(stdout, line); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if res.Failed > 0 {
		fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed their oracle\n", w.Name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// tracedRun is the -trace 1 run: the workload at one tenth of its size,
// once plain and once with a telemetry.Registry wired in and every
// driver call into a layer wrapped in a span, then the layer replays.
// The difference between the two runs is the tracing overhead; the
// traced throughput is never reported as an end-to-end number.
func tracedRun(w *workload, cfg *config, dir string, human io.Writer) (*run, error) {
	small := *cfg
	small.Seconds = cfg.Seconds / 10
	plain, err := w.Run(&small)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	traced := small
	traced.Trace = newTracer()
	traced.Registry = telemetry.NewRegistry()
	res, err := w.Run(&traced)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	res.merge(plain)
	res.set("driver.item_p99_us", plain.Values["driver.item_p99_us"], plain.Samples["driver.item_p99_us"])
	if traced.Baseline = plain.Values["items_per_s"]; traced.Baseline > 0 {
		res.set("driver.trace_overhead_frac", 1-res.Values["items_per_s"]/traced.Baseline, 1)
	}
	if err := w.Replay(&traced, res); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	if err := traced.Trace.write(dir, w.Name, cfg.Seed, human); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return res, nil
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end only
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 15

// declaredManifest renders the package's declarations as BENCHMARK.json;
// the smoke test fails when the committed file differs.
func declaredManifest() manifest {
	m := manifest{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.Name, w.Why})
	}
	for _, e := range endToEnd {
		bound := e.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{e.Name, e.Unit, e.Better, &bound})
	}
	for _, l := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{l.Name, l.Unit, l.Better, nil})
	}
	return m
}

// printList prints every metric name with unit, bound and meaning, and
// every workload with why it exists.
func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "\nend-to-end metrics (every workload reports each; bound = allowed worsening):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-22s %-12s %-6s bound %.2f  %s\n", m.Name, m.Unit, m.Better, m.Bound, m.Note)
	}
	fmt.Fprintln(w, "\nper-layer metrics (traced run, -trace 1; no bound) -> what they should move:")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-32s %-10s %-6s -> %s\n", m.Name, m.Unit, m.Better, m.Note)
	}
}
