package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/<case>.golden from this run")

// goldenCases are the command lines whose stdout testdata/<case>.golden
// pins byte for byte. soak marks the soak-sized runs, skipped in -short.
var goldenCases = []struct {
	args string
	soak bool
}{
	// Every scenario at its defaults; adapt is a soak line as well.
	{args: "meteo"},
	{args: "telecom"},
	{args: "edos"},
	{args: "rss"},
	{args: "churn"},
	{args: "agg"},
	{args: "share"},
	{args: "adapt"},
	{args: "net"},
	// One run per behaviour a scenario reports.
	{args: "churn -replay"},
	{args: "churn -replay -crash-every 0 -leave-every 15"},
	{args: "churn -replay -events 40 -crash-every 12 -partition-home 5"},
	{args: "churn -replay -grow 8 -join-every 10 -events 60 -spread"},
	{args: "agg -agg tree -events 48"},
	{args: "agg -agg flat -events 48"},
	{args: "agg -agg tree -agg-fn distinct -users 50 -events 48"},
	{args: "agg -agg tree -agg-degree 3 -replay -crash-every 20 -leave-every 17"},
	{args: "share -subs 8 -leave-every 24"},
	{args: "adapt -mode static"},
	{args: "net -nodes 4 -windows 3 -agg-fn distinct"},
	// The soak lines: long runs at elevated fault rates.
	{args: "churn -replay -events 600 -crash-every 8", soak: true},
	{args: "churn -replay -events 400 -crash-every 10 -partition-home 20", soak: true},
	{args: "churn -replay -grow 12 -join-every 12 -events 600 -crash-every 8", soak: true},
	{args: "churn -replay -grow 12 -join-every 10 -events 400 -crash-every 15 -spread", soak: true},
	{args: "churn -replay -grow 10 -join-every 15 -events 400 -crash-every 10 -partition-home 20", soak: true},
	{args: "churn -replay -events 400 -crash-every 12 -leave-every 9", soak: true},
	{args: "agg -agg tree -replay -events 400 -crash-every 16 -leave-every 13", soak: true},
	{args: "agg -agg flat -replay -events 400 -crash-every 16", soak: true},
	{args: "agg -agg tree -agg-fn distinct -users 200 -replay -events 400 -crash-every 16 -leave-every 13", soak: true},
	{args: "share -subs 48 -events 128 -crash-every 28 -leave-every 24 -grow 6", soak: true},
	{args: "adapt -events 192", soak: true},
}

// caseName turns a command line into its subtest and file name:
// "churn -replay -events 40" is "churn_replay_events_40".
func caseName(args string) string {
	f := strings.Fields(args)
	for i := range f {
		f[i] = strings.TrimLeft(f[i], "-")
	}
	return strings.Join(f, "_")
}

// firstDiff names the first line at which got departs from want.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		switch {
		case i == len(g) || i == len(w):
			return fmt.Sprintf("line %d: got %d lines, want %d", i+1, len(g), len(w))
		case g[i] != w[i]:
			return fmt.Sprintf("line %d\n  got:  %q\n  want: %q", i+1, g[i], w[i])
		}
	}
}

// TestGolden runs every case and compares its stdout with
// testdata/<case>.golden. Every report is a function of the seed, so
// any difference is a change in behaviour.
func TestGolden(t *testing.T) {
	for _, c := range goldenCases {
		name := caseName(c.args)
		t.Run(name, func(t *testing.T) {
			if c.soak && testing.Short() {
				t.Skip("short mode: soak-sized run")
			}
			var out bytes.Buffer
			if err := run(strings.Fields(c.args), &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("p2pmon %s: output moved at %s\nto accept it: go test ./cmd/p2pmon -run 'TestGolden/^%s$' -update-golden",
					c.args, firstDiff(got, string(want)), name)
			}
		})
	}
}

// The goldens say whether a report moved; the tests below say what a
// report must claim, so -update-golden cannot accept a wrong one.

func TestRSSScenario(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"rss"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "deployed plan:") || !strings.Contains(s, "results on feedChanges@manager") {
		t.Errorf("unexpected report:\n%s", s)
	}
}

func TestSubcommandForm(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"rss"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "results on feedChanges@manager") {
		t.Errorf("unexpected report:\n%s", out.String())
	}
	if err := run([]string{"nope"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"churn", "-agg", "tree"}, &bytes.Buffer{}); err == nil {
		t.Error("foreign flag accepted by the churn subcommand")
	}
}

func TestChurnReplayScenario(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"churn", "-replay"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "completeness 100%") || !strings.Contains(s, "replayed:") {
		t.Errorf("replay churn report not lossless:\n%s", s)
	}
}

// TestChurnGossipScenario: gossip, the only detector, finds and repairs
// every crash, and replay makes the run lossless.
func TestChurnGossipScenario(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"churn", "-replay"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "completeness 100%") {
		t.Errorf("gossip churn report not lossless:\n%s", s)
	}
	var crashes, detected, repaired int
	i := strings.Index(s, "crashes: ")
	if i < 0 {
		t.Fatalf("no crash line:\n%s", s)
	}
	if _, err := fmt.Sscanf(s[i:], "crashes: %d, detected: %d, repaired: %d", &crashes, &detected, &repaired); err != nil {
		t.Fatalf("crash line: %v\n%s", err, s)
	}
	if crashes == 0 || detected != crashes || repaired != crashes {
		t.Errorf("crashes %d, detected %d, repaired %d: want every crash detected and repaired", crashes, detected, repaired)
	}
}

func TestReplayFlagOutsideChurnRejected(t *testing.T) {
	if err := run([]string{"rss", "-replay"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-replay accepted outside the churn scenario")
	}
}

func TestAggFlagValidation(t *testing.T) {
	bad := [][]string{
		{"agg", "-agg", "pyramid"},
		{"agg", "-agg-degree", "1"},
		{"agg", "-agg-degree", "-2"},
		{"agg", "-partition-home", "5"},
		{"agg", "-spread"},
		{"churn", "-agg", "tree"},
		{"churn", "-agg-degree", "4"},
		{"rss", "-agg", "tree"},
		{"rss", "-leave-every", "5"},
		{"agg", "-agg-fn", "median"},
		{"churn", "-agg-fn", "distinct"},
		{"adapt", "-mode", "chaotic"},
		{"adapt", "-replay"},
	}
	for _, args := range bad {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("accepted: %v", args)
		}
	}
}

func TestUnknownScenario(t *testing.T) {
	if err := run([]string{"nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestCustomSubscriptionFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub.p2pml")
	src := `for $r in rssCOM(<p>portal.com</p>) return $r by publish as channel "mine"`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"rss", "-sub", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `channel "mine"`) {
		t.Errorf("custom subscription not used:\n%s", out.String())
	}
	if err := run([]string{"rss", "-sub", "/nonexistent"}, &bytes.Buffer{}); err == nil {
		t.Error("missing sub file accepted")
	}
}

func TestBadFlagRejected(t *testing.T) {
	if err := run([]string{"-bogus"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestLegacyScenarioEquals: the removed -scenario flag (any spelling) is
// rejected with a hint naming the subcommand form.
func TestLegacyScenarioEquals(t *testing.T) {
	for _, args := range [][]string{{"-scenario=rss"}, {"-scenario", "rss"}, {"--scenario", "churn", "-replay"}, {"-scenario"}} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "p2pmon x [flags]") {
			t.Errorf("%v: err = %v, want a rejection naming the subcommand form", args, err)
		}
		if strings.Contains(err.Error(), "\n") || out.Len() != 0 {
			t.Errorf("%v: want a one-line hint and no report, got %q / %q", args, err, out.String())
		}
	}
}

// TestScenarioScopedHelp: `p2pmon <scenario> -h` is help, not an error.
func TestScenarioScopedHelp(t *testing.T) {
	if err := run([]string{"agg", "-h"}, &bytes.Buffer{}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("scoped help returned %v, want flag.ErrHelp", err)
	}
	if err := run([]string{"-h"}, &bytes.Buffer{}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("top-level help returned %v, want flag.ErrHelp", err)
	}
}

// The detector axis is gone: gossip is the only detector, so -detector is
// an unknown flag in every scenario.
func TestChurnBadDetectorRejected(t *testing.T) {
	err := run([]string{"churn", "-detector", "gossip"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("churn -detector gossip: err = %v, want an unknown-flag rejection", err)
	}
}

func TestDetectorFlagOutsideChurnRejected(t *testing.T) {
	if err := run([]string{"rss", "-detector", "gossip"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-detector accepted outside the churn scenario")
	}
}

func TestShareFlagValidation(t *testing.T) {
	bad := [][]string{
		{"agg", "-subs", "8"},
		{"share", "-agg", "tree"},
		{"share", "-spread"},
		{"share", "-partition-home", "5"},
		{"share", "-no-reuse"},
		{"share", "-join-every", "5"},
		{"share", "-grow", "2"},
		{"share", "-grow", "6", "-join-every", "100"}, // 2 joins x 100 events do not fit the 48-event run
	}
	for _, args := range bad {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("accepted: %v", args)
		}
	}
}

func TestGrowFlagValidation(t *testing.T) {
	if err := run([]string{"churn", "-grow", "3"}, &bytes.Buffer{}); err == nil {
		t.Error("-grow below the starting pool accepted")
	}
	if err := run([]string{"churn", "-join-every", "5"}, &bytes.Buffer{}); err == nil {
		t.Error("-join-every without -grow accepted")
	}
	if err := run([]string{"rss", "-grow", "8"}, &bytes.Buffer{}); err == nil {
		t.Error("-grow accepted outside the churn scenario")
	}
	if err := run([]string{"rss", "-spread"}, &bytes.Buffer{}); err == nil {
		t.Error("-spread accepted outside the churn scenario")
	}
}
