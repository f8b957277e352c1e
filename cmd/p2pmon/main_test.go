package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

func TestChurnScenario(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"churn"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "completeness") || !strings.Contains(s, "repaired:") {
		t.Errorf("churn report incomplete:\n%s", s)
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

func TestReplayFlagOutsideChurnRejected(t *testing.T) {
	if err := run([]string{"rss", "-replay"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-replay accepted outside the churn scenario")
	}
}

func TestChurnLeaveScenario(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"churn", "-replay", "-crash-every", "0", "-leave-every", "15"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "completeness 100%") || !strings.Contains(s, "graceful departures") {
		t.Errorf("leave churn report incomplete:\n%s", s)
	}
}

func TestAggScenarioTreeAndFlat(t *testing.T) {
	for _, mode := range []string{"tree", "flat"} {
		var out bytes.Buffer
		if err := run([]string{"agg", "-agg", mode, "-events", "48"}, &out); err != nil {
			t.Fatal(err)
		}
		s := out.String()
		if !strings.Contains(s, "windowed-group completeness 100%") || !strings.Contains(s, "max versus mean") {
			t.Errorf("agg %s report incomplete:\n%s", mode, s)
		}
		if mode == "tree" && !strings.Contains(s, "γm!") {
			t.Errorf("tree plan missing a Final merge root:\n%s", s)
		}
		if mode == "flat" && !strings.Contains(s, "γ[") {
			t.Errorf("flat plan missing the Group operator:\n%s", s)
		}
	}
}

func TestAggSketchScenario(t *testing.T) {
	var out bytes.Buffer
	args := []string{"agg", "-agg", "tree", "-agg-fn", "distinct", "-users", "50", "-events", "48"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "fn distinct") || !strings.Contains(s, "windowed-group completeness 100%") {
		t.Errorf("sketch run incomplete:\n%s", s)
	}
	if !strings.Contains(s, "sketch accuracy: max rel err") {
		t.Errorf("sketch run missing the accuracy line:\n%s", s)
	}
	if err := run([]string{"agg", "-agg-fn", "median"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown -agg-fn accepted")
	}
	if err := run([]string{"churn", "-agg-fn", "distinct"}, &bytes.Buffer{}); err == nil {
		t.Error("-agg-fn accepted outside the agg scenario")
	}
}

func TestAggChurnScenario(t *testing.T) {
	var out bytes.Buffer
	args := []string{"agg", "-agg", "tree", "-agg-degree", "3", "-replay", "-crash-every", "20", "-leave-every", "17"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "windowed-group completeness 100%") {
		t.Errorf("agg churn run not lossless:\n%s", s)
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

// TestSubcommandForm: `p2pmon <scenario> [flags]` routes to the
// scenario's runner and flag set.
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

// TestAdaptScenario: the X6 lab as a subcommand — compare mode runs all
// three deployments and gates adaptive against static.
func TestAdaptScenario(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"adapt"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"flat:", "static:", "adaptive:", "byte-identical true",
		"adaptive beats static: zero false kills"} {
		if !strings.Contains(s, want) {
			t.Errorf("compare report missing %q:\n%s", want, s)
		}
	}
	out.Reset()
	if err := run([]string{"adapt", "-mode", "static"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "static:") || strings.Contains(out.String(), "adaptive:") {
		t.Errorf("single-mode run leaked other modes:\n%s", out.String())
	}
	if err := run([]string{"adapt", "-mode", "chaotic"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown adapt mode accepted")
	}
	if err := run([]string{"adapt", "-replay"}, &bytes.Buffer{}); err == nil {
		t.Error("foreign flag accepted by the adapt subcommand")
	}
}

func TestChurnGossipScenario(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"churn", "-replay"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "completeness 100%") {
		t.Errorf("gossip churn report not lossless:\n%s", s)
	}
}

func TestChurnPartitionHomeScenario(t *testing.T) {
	var out bytes.Buffer
	args := []string{"churn", "-replay", "-events", "40", "-crash-every", "12", "-partition-home", "5"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "monitor peer partitioned away after 5 events") ||
		!strings.Contains(s, "completeness 100%") {
		t.Errorf("partition-home gossip run not lossless:\n%s", s)
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

func TestChurnElasticGrowScenario(t *testing.T) {
	var out bytes.Buffer
	args := []string{"churn", "-replay", "-grow", "8", "-join-every", "10", "-events", "60", "-spread"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "growing from 4 to 8 workers") ||
		!strings.Contains(s, "joins: 4 workers admitted at runtime") {
		t.Errorf("elastic growth not reported:\n%s", s)
	}
	if !strings.Contains(s, "completeness 100%") {
		t.Errorf("elastic growth run not lossless:\n%s", s)
	}
	if !strings.Contains(s, "DHT spreading") {
		t.Errorf("-spread not reported:\n%s", s)
	}
}

func TestShareScenario(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"share", "-subs", "8", "-leave-every", "24"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// Both modes must answer every subscription byte-identically, and the
	// reuse pass's discovery must never have degraded to fresh deployment.
	if strings.Count(s, "byte-identical 8/8 subs") != 2 {
		t.Errorf("share run not byte-identical in both modes:\n%s", s)
	}
	if !strings.Contains(s, "(0 failed)") || !strings.Contains(s, "fewer operators") {
		t.Errorf("share report incomplete:\n%s", s)
	}
	if !strings.Contains(s, "churn (shared run):") || strings.Contains(s, "leaves 0,") {
		t.Errorf("graceful leave not reported:\n%s", s)
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
