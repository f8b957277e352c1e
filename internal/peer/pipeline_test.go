package peer

import (
	"fmt"
	"strings"
	"testing"
)

// explainMeteo is the Figure 1 subscription without its LET and its
// duration condition.
const explainMeteo = `for $c1 in outCOM(<p>a.com</p><p>b.com</p>),
    $c2 in inCOM(<p>meteo.com</p>)
where $c1.callMethod = "GetTemperature" and $c1.callId = $c2.callId
return <m c="{$c1.caller}"/> by publish as channel "out"`

func TestExplainStages(t *testing.T) {
	ex, err := Explain(explainMeteo, "p")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Subscription == nil || len(ex.Subscription.For) != 2 {
		t.Fatal("subscription stage missing")
	}
	if ex.Reuse != nil {
		t.Error("Explain without a system ran the reuse pass")
	}
	if got, want := ex.NaivePlan.String(), "publisher@any(Π@any(σ@any(⋈@any(∪@any(out@a.com, out@b.com), in@meteo.com))))"; got != want {
		t.Errorf("compiled plan:\n got %s\nwant %s", got, want)
	}
	if got, want := ex.Optimized.String(), "publisher@p(Π@meteo.com(⋈@meteo.com(∪@b.com(σ@a.com(out@a.com), σ@b.com(out@b.com)), in@meteo.com)))"; got != want {
		t.Errorf("optimized plan:\n got %s\nwant %s", got, want)
	}
	out := ex.String()
	for _, want := range []string{"== Subscription", "== Compiled plan", "== Optimized plan"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestExplainParseError(t *testing.T) {
	if _, err := Explain("bogus", "p"); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := MustSystem(DefaultConfig()).Explain("bogus", "p"); err == nil {
		t.Error("garbage accepted by System.Explain")
	}
}

func TestSystemExplainWithReuse(t *testing.T) {
	sys, mgr := meteoWorld(t, DefaultConfig(), func(int) bool { return false })
	task, err := mgr.Subscribe(explainMeteo)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { task.Stop(); task.Results().Drain() }()

	ex, err := sys.Explain(explainMeteo, "q")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Reuse == nil || len(ex.Reuse.Mappings) == 0 {
		t.Fatal("reuse stage missing against the live database")
	}
	if !strings.Contains(ex.String(), "== Stream reuse ==") {
		t.Error("reuse section not rendered")
	}
}

func TestSystemExplainReuseDisabled(t *testing.T) {
	opts := DefaultConfig()
	opts.Reuse = false
	sys, _ := meteoWorld(t, opts, func(int) bool { return false })
	ex, err := sys.Explain(explainMeteo, "p")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Reuse != nil {
		t.Error("reuse section present despite disabled reuse")
	}
}

// TestExplainIsWhatDeploys holds System.Explain to the plan Subscribe
// deploys, in every combination of pushdown and reuse: after a first
// selection and a first group are running, a narrower selection (a
// residual σ over a reused stream) and a group over a subset of the
// first group's sources and a subscription that returns whole alerts
// each explain to exactly the plan they then deploy, the last with its
// alerters marked as body readers. Agg.Degree stays 0, so deploy applies
// no tree rewrite.
func TestExplainIsWhatDeploys(t *testing.T) {
	sub := func(sources, where, ret, channel string) string {
		return fmt.Sprintf(`for $e in inCOM(%s) %s return %s by publish as channel "%s"`, sources, where, ret, channel)
	}
	const (
		pair  = `<p>s0</p><p>s1</p>`
		six   = `<p>s0</p><p>s1</p><p>s2</p><p>s3</p><p>s4</p><p>s5</p>`
		inner = `<p>s1</p><p>s2</p><p>s3</p><p>s4</p>`
		group = `$e group on "callee" window "10s"`
	)
	first := []string{
		sub(pair, `where $e.callMethod = "Q"`, `<r c="{$e.caller}"/>`, "all"),
		sub(six, "", group, "wide"),
	}
	second := []struct {
		name, src string
		body      bool // reads below the alerts' root: its alerters carry the envelope
	}{
		{"narrower σ", sub(pair, `where $e.callMethod = "Q" and $e.caller = "client"`, `<r c="{$e.callId}"/>`, "narrow"), false},
		{"group graft", sub(inner, "", group, "inner"), false},
		{"body reader", sub(pair, `where $e.callMethod = "Q"`, `$e`, "whole"), true},
	}
	for _, pushdown := range []bool{true, false} {
		for _, reuse := range []bool{true, false} {
			t.Run(fmt.Sprintf("pushdown=%v/reuse=%v", pushdown, reuse), func(t *testing.T) {
				opts := DefaultConfig()
				opts.Pushdown, opts.Reuse = pushdown, reuse
				sys := aggPeers(opts, 6, 0)
				mgr := sys.Peer("mgr")
				for _, src := range first {
					task, err := mgr.Subscribe(src)
					if err != nil {
						t.Fatal(err)
					}
					defer task.Stop()
				}
				for _, c := range second {
					name, src := c.name, c.src
					peers, tasks := len(sys.Peers()), len(mgr.Tasks())
					if _, err := sys.Explain(src, "q"); err != nil {
						t.Fatal(err)
					}
					if sys.Peer("q") != nil || len(sys.Peers()) != peers || len(mgr.Tasks()) != tasks {
						t.Fatalf("%s: Explain deployed something", name)
					}
					ex, err := sys.Explain(src, "mgr")
					if err != nil {
						t.Fatal(err)
					}
					if reuse != (ex.Reuse != nil) {
						t.Errorf("%s: reuse stage present = %v with Config.Reuse = %v", name, ex.Reuse != nil, reuse)
					}
					task, err := mgr.Subscribe(src)
					if err != nil {
						t.Fatal(err)
					}
					defer task.Stop()
					last := ex.Optimized
					if ex.Reuse != nil {
						last = ex.Reuse.Plan
					}
					if got, want := last.String(), task.Plan.String(); got != want {
						t.Errorf("%s: explained\n  %s\nbut deployed\n  %s", name, got, want)
					}
					if marked := strings.Contains(last.String(), "+body@"); marked != c.body {
						t.Errorf("%s: explained plan marks a body reader = %v, want %v:\n  %s", name, marked, c.body, last)
					}
				}
			})
		}
	}
}
