// Command p2pmon runs a P2PM monitoring scenario on a simulated P2P
// network and streams the results to stdout.
//
// Each scenario is a subcommand with its own flag set — `p2pmon
// <scenario> -h` shows only the flags that scenario takes:
//
//	p2pmon meteo                # the paper's Figure 1 running example
//	p2pmon telecom              # workflow surveillance
//	p2pmon edos                 # content-distribution statistics
//	p2pmon rss                  # feed monitoring
//	p2pmon churn                # self-healing under relay crashes
//	p2pmon churn -replay                  # lossless failover (replay + checkpoints)
//	p2pmon churn -replay -events 600 -crash-every 8                    # soak
//	p2pmon churn -replay -partition-home 10                            # survivability
//	p2pmon churn -replay -grow 10 -join-every 12                       # elastic growth
//	p2pmon churn -replay -grow 10 -spread                              # + DHT checkpoint spreading
//	p2pmon churn -replay -leave-every 15                               # graceful leave/rejoin cycles
//	p2pmon agg -agg tree -agg-degree 3                                 # in-network aggregation tree
//	p2pmon agg -agg flat                                               # the O(n) hotspot baseline
//	p2pmon agg -agg tree -replay -crash-every 16 -leave-every 13       # aggregation under flap churn
//	p2pmon share                                                       # multi-tenant aggregate sharing
//	p2pmon share -subs 48 -leave-every 24                              # sharing under graceful-leave churn
//	p2pmon adapt                                                       # self-adaptive runtime vs static (X6 profile)
//	p2pmon adapt -mode adaptive -events 192                            # one mode, longer schedule
//	p2pmon net                                                         # transport cluster, in-process simnet backend
//	p2pmon net -nodes 5 -windows 8 -agg-fn avg                         # bigger simnet cluster
//	p2pmon net -listen 127.0.0.1:7101 -name n1 \
//	       -peers n1=127.0.0.1:7101,n2=127.0.0.1:7102,n3=127.0.0.1:7103  # one real-TCP cluster process
//	p2pmon meteo -sub custom.p2pml   # custom subscription text
//
// The net scenario prints only the root's window results on stdout
// (status goes to stderr), so a multi-process TCP run is byte-
// comparable to the single-process simnet run of the same scenario —
// scripts/netsmoke.sh automates exactly that diff.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"p2pm/internal/peer"
	"p2pm/internal/stream"
	"p2pm/internal/workload"
)

// scenario is one registered subcommand: a name, a one-line synopsis
// for the top-level usage listing, and a runner that owns its flag set.
type scenario struct {
	name     string
	synopsis string
	run      func(args []string, out io.Writer) error
}

// scenarios is the registry, in listing order. Every scenario —
// including the X6 adapt lab — registers here and nowhere else.
var scenarios []*scenario

func registerScenario(name, synopsis string, run func([]string, io.Writer) error) {
	scenarios = append(scenarios, &scenario{name: name, synopsis: synopsis, run: run})
}

func lookupScenario(name string) *scenario {
	for _, sc := range scenarios {
		if sc.name == name {
			return sc
		}
	}
	return nil
}

func scenarioNames() string {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.name
	}
	return strings.Join(names, " | ")
}

// newFlagSet builds a scenario's flag set with a scoped usage header.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet("p2pmon "+name, flag.ContinueOnError)
	sc := lookupScenario(name)
	fs.Usage = func() {
		if sc != nil {
			fmt.Fprintf(fs.Output(), "p2pmon %s — %s\n", sc.name, sc.synopsis)
		}
		fmt.Fprintf(fs.Output(), "usage: p2pmon %s [flags]\n", name)
		fs.PrintDefaults()
	}
	return fs
}

func init() {
	registerScenario("meteo", "the paper's Figure 1 running example (weather alerts)", func(a []string, out io.Writer) error {
		return runQuery("meteo", a, out)
	})
	registerScenario("telecom", "workflow surveillance over orchestrator call logs", func(a []string, out io.Writer) error {
		return runQuery("telecom", a, out)
	})
	registerScenario("edos", "content-distribution statistics gathering", func(a []string, out io.Writer) error {
		return runQuery("edos", a, out)
	})
	registerScenario("rss", "feed monitoring with churn", func(a []string, out io.Writer) error {
		return runQuery("rss", a, out)
	})
	registerScenario("churn", "self-healing under relay crashes, leaves, joins and partitions", runChurnScenario)
	registerScenario("agg", "in-network aggregation tree vs the flat hotspot, under churn", runAggScenario)
	registerScenario("share", "multi-tenant aggregate sharing, shared vs unshared", runShareScenario)
	registerScenario("adapt", "self-adaptive runtime vs static under the diurnal+hotspot profile (X6)", runAdaptScenario)
	registerScenario("net", "transport cluster: in-process simnet or one real-TCP node", runNetScenario)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run dispatches `p2pmon <scenario> [flags]` to the scenario's runner
// (separated from main for testing). Without arguments it runs meteo.
func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		args = []string{"meteo"}
	}
	switch name := args[0]; {
	case name == "-h" || name == "-help" || name == "--help":
		fmt.Fprintf(os.Stderr, "usage: p2pmon <scenario> [flags]\nscenarios:\n")
		for _, sc := range scenarios {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", sc.name, sc.synopsis)
		}
		fmt.Fprintf(os.Stderr, "`p2pmon <scenario> -h` lists that scenario's flags.\n")
		return flag.ErrHelp
	case strings.HasPrefix(name, "-"):
		return fmt.Errorf("p2pmon: %s: scenarios are subcommands — write `p2pmon x [flags]`, not `p2pmon -scenario x [flags]` (have: %s)", name, scenarioNames())
	}
	sc := lookupScenario(args[0])
	if sc == nil {
		return fmt.Errorf("p2pmon: unknown scenario %q (have: %s)", args[0], scenarioNames())
	}
	return sc.run(args[1:], out)
}

// runQuery runs one of the P2PML query scenarios: set up the monitored
// world, subscribe, drive, and print every result item.
func runQuery(name string, args []string, out io.Writer) error {
	fs := newFlagSet(name)
	subFile := fs.String("sub", "", "file with a custom P2PML subscription (overrides the scenario default)")
	noReuse := fs.Bool("no-reuse", false, "disable stream reuse")
	noPushdown := fs.Bool("no-pushdown", false, "disable selection pushdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := peer.DefaultConfig()
	opts.Reuse = !*noReuse
	opts.Pushdown = !*noPushdown
	sys := peer.MustSystem(opts)
	mgr := sys.MustAddPeer("manager")

	var subSrc string
	var drive func() (int, error)
	switch name {
	case "meteo":
		cfg := workload.DefaultMeteo()
		if err := workload.SetupMeteo(sys, cfg); err != nil {
			return err
		}
		subSrc = workload.MeteoSubscription(cfg.Clients, cfg.Server)
		drive = func() (int, error) { return workload.RunMeteo(sys, cfg) }
	case "telecom":
		cfg := workload.DefaultTelecom()
		if err := workload.SetupTelecom(sys, cfg); err != nil {
			return err
		}
		subSrc = `for $c in outCOM(<p>orchestrator</p>)
return <call id="{$c.callId}" method="{$c.callMethod}" to="{$c.callee}"/>
by publish as channel "calls"`
		drive = func() (int, error) { return workload.RunTelecom(sys, cfg) }
	case "edos":
		cfg := workload.DefaultEdos()
		e, err := workload.SetupEdos(sys, cfg)
		if err != nil {
			return err
		}
		subSrc = e.StatsSubscription("GetPackage")
		drive = func() (int, error) {
			d, q, err := e.Run()
			return d + q, err
		}
	case "rss":
		portal := sys.MustAddPeer("portal.com")
		churn := workload.NewFeedChurn(9, "portal news", 4)
		portal.RegisterFeed("http://portal.com/feed", churn.Fetch())
		subSrc = `for $r in rssCOM(<p>portal.com</p>)
return $r by publish as channel "feedChanges"`
		drive = func() (int, error) {
			n := 0
			for i := 0; i < 12; i++ {
				churn.Step()
				k, err := sys.Poll()
				if err != nil {
					return n, err
				}
				n += k
			}
			return n, nil
		}
	}
	if *subFile != "" {
		b, err := os.ReadFile(*subFile)
		if err != nil {
			return err
		}
		subSrc = string(b)
	}

	fmt.Fprintf(out, "== scenario %s ==\n%s\n\n", name, subSrc)
	task, err := mgr.Subscribe(subSrc)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "deployed plan:\n%s\n", task.Plan.Tree())

	events, err := drive()
	if err != nil {
		return err
	}
	task.Stop()
	results := task.Results().Drain()
	// Branches of a union arrive in scheduling order; print by time, then
	// by rendering, so the listing is a function of the seed.
	slices.SortFunc(results, func(a, b stream.Item) int {
		return cmp.Or(cmp.Compare(a.Time, b.Time), strings.Compare(a.Tree.String(), b.Tree.String()))
	})
	fmt.Fprintf(out, "drove %d events; %d results on %s:\n", events, len(results), task.ResultChannel())
	for _, it := range results {
		fmt.Fprintf(out, "  t=%-8s %s\n", it.Time, it.Tree)
	}
	tot := sys.Net.Totals()
	fmt.Fprintf(out, "\nnetwork: %d messages, %d bytes over %d links\n", tot.Messages, tot.Bytes, tot.Links)
	return nil
}

// labFlags declares the flags that map onto workload.Common — once, for
// every lab subcommand — and returns the function that applies the
// parsed values to c. take lists the flags this subcommand accepts;
// target names its crash/leave victim in the usage text.
func labFlags(fs *flag.FlagSet, c *workload.Common, target string, take ...string) func() error {
	has := func(name string) bool { return slices.Contains(take, name) }
	replay := new(bool)
	events, leaveEvery, grow, joinEvery := new(int), new(int), new(int), new(int)
	crashEvery := new(int)
	*crashEvery = -1
	if has("replay") {
		fs.BoolVar(replay, "replay", false, "enable replay buffers + operator checkpointing (lossless failover; the share scenario has it on already)")
	}
	if has("events") {
		fs.IntVar(events, "events", 0, "events to drive (0 = scenario default)")
	}
	if has("crash-every") {
		fs.IntVar(crashEvery, "crash-every", -1, "crash "+target+" every N events (0 = never, -1 = scenario default)")
	}
	if has("leave-every") {
		fs.IntVar(leaveEvery, "leave-every", 0, target+" gracefully leaves every N events, rejoining after MTTR (0 = never)")
	}
	if has("grow") {
		fs.IntVar(grow, "grow", 0, fmt.Sprintf("grow the worker pool from %d to N at runtime via the membership join protocol (0 = static pool, see docs/MEMBERSHIP.md)", c.Workers))
	}
	if has("join-every") {
		fs.IntVar(joinEvery, "join-every", 0, "admit one pending worker every N driven events (0 = spread the joins evenly; needs -grow)")
	}
	return func() error {
		c.Replay = c.Replay || *replay
		if *events > 0 {
			c.Events = *events
		}
		if *crashEvery >= 0 {
			c.CrashEvery = *crashEvery
		}
		c.LeaveEvery = *leaveEvery
		switch {
		case *grow > 0 && *grow <= c.Workers:
			return fmt.Errorf("p2pmon: -grow %d must exceed the starting pool of %d workers", *grow, c.Workers)
		case *grow > 0:
			c.GrowFrom, c.Workers, c.JoinEvery = c.Workers, *grow, *joinEvery
		case *joinEvery > 0:
			return fmt.Errorf("p2pmon: -join-every needs -grow (there is nothing to admit)")
		}
		return nil
	}
}

// runChurnScenario parses the churn scenario's flags and runs it.
func runChurnScenario(args []string, out io.Writer) error {
	fs := newFlagSet("churn")
	cfg := workload.DefaultChurn()
	apply := labFlags(fs, &cfg.Common, "the relay host",
		"replay", "events", "crash-every", "leave-every", "grow", "join-every")
	fs.IntVar(&cfg.PartitionHomeAfter, "partition-home", 0, "isolate the monitor peer after N events (0 = never) — the detector survivability case")
	fs.BoolVar(&cfg.Spread, "spread", false, "enable DHT virtual-node + bounded-load checkpoint spreading")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := apply(); err != nil {
		return err
	}
	return runChurn(out, cfg)
}

// runAggScenario parses the aggregation scenario's flags and runs it.
func runAggScenario(args []string, out io.Writer) error {
	fs := newFlagSet("agg")
	cfg := workload.DefaultAgg()
	apply := labFlags(fs, &cfg.Common, "the aggregation host",
		"replay", "events", "crash-every", "leave-every")
	aggMode := fs.String("agg", "", "aggregation deployment, tree | flat (see docs/AGGREGATION.md; default tree)")
	aggDegree := fs.Int("agg-degree", 0, "aggregation-tree fan-in bound (0 = default 3)")
	fs.StringVar(&cfg.Fn, "agg-fn", "", "aggregate function, count | sum | min | max | avg | set | distinct | freq (default count; see docs/AGGREGATION.md)")
	fs.IntVar(&cfg.Users, "users", 0, "distinct-value universe for value-consuming aggregate functions (0 = default 24)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := apply(); err != nil {
		return err
	}
	if *aggMode != "" {
		cfg.Mode = *aggMode
	}
	if *aggDegree != 0 {
		if *aggDegree < 2 {
			return fmt.Errorf("p2pmon: -agg-degree %d is not a valid fan-in bound (want >= 2, or 0 for the default)", *aggDegree)
		}
		cfg.Degree = *aggDegree
	}
	return runAgg(out, cfg)
}

// runShareScenario parses the sharing scenario's flags and runs it.
func runShareScenario(args []string, out io.Writer) error {
	fs := newFlagSet("share")
	cfg := workload.DefaultShare()
	apply := labFlags(fs, &cfg.Common, "the shared-interior host",
		"replay", "events", "crash-every", "leave-every", "grow", "join-every")
	subs := fs.Int("subs", 0, "number of overlapping subscriptions (0 = default 12)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := apply(); err != nil {
		return err
	}
	if *subs > 0 {
		cfg.Subs = *subs
	}
	return runShare(out, cfg)
}

// runNetScenario parses the transport cluster's flags and runs it.
func runNetScenario(args []string, out io.Writer) error {
	fs := newFlagSet("net")
	aggFn := fs.String("agg-fn", "", "aggregate function, count | sum | min | max | avg | set | distinct | freq (default count)")
	users := fs.Int("users", 0, "distinct-value universe for value-consuming aggregate functions (0 = default 24)")
	listen := fs.String("listen", "", "TCP listen address — run ONE cluster node as this OS process (needs -name and -peers; see docs/TRANSPORT.md)")
	name := fs.String("name", "", "this node's peer name (with -listen)")
	peersFlag := fs.String("peers", "", "full cluster map name=host:port,... including self (with -listen)")
	nodes := fs.Int("nodes", 0, "cluster size for the in-process simnet backend (0 = default 3)")
	windows := fs.Int("windows", 0, "windows to aggregate (0 = default 5)")
	metricsAddr := fs.String("metrics-addr", "", "serve this process's telemetry over HTTP on this address (Prometheus /metrics, JSON /metrics.json; see docs/TELEMETRY.md)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := netConfig{Fn: *aggFn, Users: *users, Windows: *windows, Nodes: *nodes,
		Listen: *listen, Name: *name, Peers: *peersFlag, MetricsAddr: *metricsAddr}
	return runNet(out, cfg)
}

// runAdaptScenario parses the self-adaptation scenario's flags and runs it.
func runAdaptScenario(args []string, out io.Writer) error {
	fs := newFlagSet("adapt")
	cfg := workload.DefaultAdapt()
	// The fault schedule scales with -events.
	apply := labFlags(fs, &cfg.Common, "", "events")
	mode := fs.String("mode", "compare", "flat | static | adaptive | compare (compare runs all three and gates adaptive against static)")
	seed := fs.Int64("seed", 0, "deterministic seed (0 = scenario default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := apply(); err != nil {
		return err
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	return runAdapt(out, cfg, *mode)
}

// runAdapt runs the X6 scenario: the monitor monitoring itself. In
// compare mode it runs the undisturbed flat ground truth, the static
// configuration and the adaptive runtime over the same seeded fault
// schedule and fails (non-zero exit) if the adaptive run false-kills
// anyone, misses a real crash, never splits the hot interior, or drifts
// from the flat baseline — the soak gate.
func runAdapt(out io.Writer, cfg workload.AdaptConfig, mode string) error {
	runOne := func(m string) (*workload.AdaptReport, error) {
		c := cfg
		c.Mode = m
		return workload.Run(&c)
	}
	fmt.Fprintf(out, "== scenario adapt ==\nevents: %d, window %v, degree %d, slow phase: +%v / %.0f%% loss, probe timeout %v, suspicion %v\n",
		cfg.Events, cfg.Window, cfg.Degree, cfg.SlowDelay, cfg.SlowDrop*100, peer.ProbeTimeout, cfg.Suspicion)
	report := func(rep *workload.AdaptReport) {
		fmt.Fprintf(out, "%-9s records %d, false kills %d, true kills %d, repairs %d, replayed %d\n",
			rep.Mode+":", len(rep.Records), rep.FalseKills, rep.TrueKills, rep.Repairs, rep.Replayed)
		if rep.Mode == "flat" {
			return
		}
		fmt.Fprintf(out, "          splits %d, post-split ingest max %d mean %.1f (%.2fx), health peak %d\n",
			rep.Splits, rep.PostMax, rep.PostMean, rep.PostRatio(), rep.HealthPeak)
		fmt.Fprintf(out, "          control: %d quarantine engages, %d replication raises, quarantined at teardown: [%s]\n",
			rep.Quarantines, rep.ReplRaises, strings.Join(rep.Quarantined, " "))
	}

	if mode != "compare" {
		rep, err := runOne(mode)
		if err != nil {
			return err
		}
		report(rep)
		return nil
	}

	flat, err := runOne("flat")
	if err != nil {
		return err
	}
	static, err := runOne("static")
	if err != nil {
		return err
	}
	adaptive, err := runOne("adaptive")
	if err != nil {
		return err
	}
	for _, rep := range []*workload.AdaptReport{flat, static, adaptive} {
		report(rep)
		if rep.Mode != "flat" {
			fmt.Fprintf(out, "          completeness %.0f%% vs flat, byte-identical %v\n",
				rep.Completeness(flat.Records)*100, rep.Identical(flat.Records))
		}
	}
	switch {
	case adaptive.FalseKills != 0:
		return fmt.Errorf("p2pmon adapt: adaptive run false-killed %d peers: %v", adaptive.FalseKills, adaptive.Kills)
	case adaptive.TrueKills < 1:
		return fmt.Errorf("p2pmon adapt: adaptive run missed the flapper's real crashes")
	case adaptive.Splits < 1:
		return fmt.Errorf("p2pmon adapt: adaptive run never split the hot interior")
	case !adaptive.Identical(flat.Records):
		return fmt.Errorf("p2pmon adapt: adaptive records drifted from the flat baseline")
	case static.FalseKills < 1:
		return fmt.Errorf("p2pmon adapt: static run false-killed nobody — the scenario lost its trap")
	}
	fmt.Fprintf(out, "adaptive beats static: zero false kills (static %d), hot interior split at runtime, output byte-identical to flat\n",
		static.FalseKills)
	return nil
}

// runAgg runs the in-network aggregation scenario: a windowed
// group-by-count over every monitored source, deployed flat (one
// aggregator ingesting all streams) or as a DHT-routed partial/merge
// tree, optionally under crash and graceful-leave churn. The report
// scores every windowed count against the deterministic expectation of
// the drive schedule.
func runAgg(out io.Writer, cfg workload.AggConfig) error {
	lab, err := workload.New(&cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "== scenario agg ==\nmode %s (degree %d), fn %s, sources: %d, workers: %d, events: %d, window %v, crash every %d, leave every %d, replay %v\n",
		cfg.Mode, cfg.Degree, cfg.Fn, cfg.Sources, cfg.Workers, cfg.Events, cfg.Window, cfg.CrashEvery, cfg.LeaveEvery, cfg.Replay)
	fmt.Fprintf(out, "deployed plan:\n%s\n", lab.Tasks[0].Plan.Tree())
	rep, err := lab.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "drove %d events across %d windows\n", rep.Driven, rep.Windows)
	fmt.Fprintf(out, "windowed-group completeness %.0f%% (%d/%d groups correct, %d emitted)\n",
		rep.Completeness()*100, rep.CorrectGroups, rep.ExpectedGroups, rep.ResultGroups)
	if rep.SketchGroups > 0 {
		fmt.Fprintf(out, "sketch accuracy: max rel err %.2f%%, mean %.2f%% over %d groups (vs exact replayed distinct counts)\n",
			rep.MaxRelErr*100, rep.MeanRelErr*100, rep.SketchGroups)
	}
	fmt.Fprintf(out, "ingest load: max %d/peer, mean %.1f/peer, max versus mean %.2fx\n",
		rep.IngestMax, rep.IngestMean, rep.IngestRatio())
	fmt.Fprintf(out, "crashes: %d, leaves: %d, joins: %d, detected: %d, repaired: %d, replayed: %d\n",
		rep.Crashes, rep.Leaves, rep.Joins, rep.Deaths, rep.Repairs, rep.Replayed)
	fmt.Fprintf(out, "aggregation host ended at %s\n", lab.Victim())
	fmt.Fprintf(out, "\nnetwork: %d messages, %d bytes, %d dropped over %d links\n",
		rep.Traffic.Messages, rep.Traffic.Bytes, rep.Traffic.Dropped, rep.Traffic.Links)
	return nil
}

// runShare runs the multi-tenant aggregation scenario twice — once
// through the reuse pass (overlapping subscriptions share aggregation
// trees) and once unshared (every subscription builds its own) — and
// reports both against the same ground truth, so the sharing shows up as
// pure deployment and ingest savings, never as an answer change.
func runShare(out io.Writer, cfg workload.ShareConfig) error {
	reps := make(map[string]*workload.ShareReport, 2)
	for _, mode := range []string{"shared", "unshared"} {
		c := cfg
		c.Mode = mode
		lab, err := workload.New(&c)
		if err != nil {
			return err
		}
		if mode == "shared" {
			fmt.Fprintf(out, "== scenario share ==\nsources: %d, workers: %d, subscriptions: %d, events: %d, window %v, crash every %d, leave every %d, replay %v\n",
				c.Sources, c.Workers, c.Subs, c.Events, c.Window, c.CrashEvery, c.LeaveEvery, c.Replay)
			if c.GrowFrom > 0 {
				fmt.Fprintf(out, "elastic pool: growing from %d to %d workers via the join protocol\n", c.GrowFrom, c.Workers)
			}
		}
		rep, err := lab.Run()
		if err != nil {
			return err
		}
		reps[mode] = rep
		fmt.Fprintf(out, "%-9s %d operators (%.2f/sub), byte-identical %d/%d subs, completeness %.0f%%, hottest peer ingest %d (%.2fx mean)\n",
			mode+":", rep.Operators, rep.OpsPerSub(), rep.ByteIdenticalSubs, rep.Subs,
			rep.Completeness()*100, rep.IngestMax, rep.IngestRatio())
		for _, m := range rep.Mismatches {
			fmt.Fprintf(out, "  mismatch: %s\n", m)
		}
	}
	sh, un := reps["shared"], reps["unshared"]
	fmt.Fprintf(out, "reuse pass: %d ops reused, %d fresh, %d discovery lookups (%d failed)\n",
		sh.ReusedOps, sh.NewOps, sh.Lookups, sh.FailedLookups)
	fmt.Fprintf(out, "sharing: %.1fx fewer operators, hotspot ingest %d vs %d\n",
		float64(un.Operators)/float64(sh.Operators), sh.IngestMax, un.IngestMax)
	fmt.Fprintf(out, "churn (shared run): crashes %d, leaves %d, joins %d, repaired %d, replayed %d\n",
		sh.Crashes, sh.Leaves, sh.Joins, sh.Repairs+sh.LeaveRepairs, sh.Replayed)
	fmt.Fprintf(out, "\nnetwork (shared run): %d messages, %d bytes, %d dropped over %d links\n",
		sh.Traffic.Messages, sh.Traffic.Bytes, sh.Traffic.Dropped, sh.Traffic.Links)
	return nil
}

// runChurn runs the self-healing scenario: the relay operator of a
// subscription is killed repeatedly while events flow; the supervisor
// migrates it and the report shows what the churn cost. With replay on,
// outage windows are retransmitted and the run ends lossless. The
// partition knob selects the detector survivability case.
func runChurn(out io.Writer, cfg workload.ChurnConfig) error {
	lab, err := workload.New(&cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "== scenario churn ==\nrelay workers: %d, events: %d, crash every %d events, MTTR %v, replay %v\n",
		cfg.Workers, cfg.Events, cfg.CrashEvery, cfg.MTTR, cfg.Replay)
	if cfg.GrowFrom > 0 {
		fmt.Fprintf(out, "elastic pool: growing from %d to %d workers via the join protocol\n", cfg.GrowFrom, cfg.Workers)
	}
	if cfg.Spread {
		fmt.Fprintf(out, "DHT spreading: virtual-node tokens + bounded-load checkpoint placement\n")
	}
	if cfg.PartitionHomeAfter > 0 {
		fmt.Fprintf(out, "monitor peer partitioned away after %d events\n", cfg.PartitionHomeAfter)
	}
	fmt.Fprintf(out, "deployed plan:\n%s\n", lab.Tasks[0].Plan.Tree())
	rep, err := lab.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "drove %d events; %d results arrived (completeness %.0f%%)\n",
		rep.Driven, rep.Received, rep.Completeness()*100)
	fmt.Fprintf(out, "crashes: %d, detected: %d, repaired: %d, replayed: %d, mean detection latency %.1fs\n",
		rep.Crashes, rep.Deaths, rep.Repairs, rep.Replayed, rep.DetectionLatency.Mean())
	if rep.Joins > 0 {
		fmt.Fprintf(out, "joins: %d workers admitted at runtime\n", rep.Joins)
	}
	if rep.Leaves > 0 {
		fmt.Fprintf(out, "leaves: %d graceful departures (%d handoff migrations, zero detection latency)\n",
			rep.Leaves, rep.LeaveRepairs)
	}
	fmt.Fprintf(out, "relay ended at %s\n", lab.Victim())
	fmt.Fprintf(out, "\nnetwork: %d messages, %d bytes, %d dropped over %d links\n",
		rep.Traffic.Messages, rep.Traffic.Bytes, rep.Traffic.Dropped, rep.Traffic.Links)
	return nil
}
