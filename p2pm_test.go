package p2pm_test

import (
	"strings"
	"testing"
	"time"

	"p2pm"
	"p2pm/internal/xmltree"
)

// TestPublicAPIQuickstart exercises the documented public surface the way
// a downstream user would.
func TestPublicAPIQuickstart(t *testing.T) {
	sys := p2pm.MustSystem(p2pm.DefaultConfig())
	mgr := sys.MustAddPeer("monitor")
	server := sys.MustAddPeer("svc.example")
	server.Endpoint().Register("Echo", func(params *xmltree.Node) (*xmltree.Node, error) {
		return params.Clone(), nil
	}, func() time.Duration { return 50 * time.Millisecond })
	client := sys.MustAddPeer("client.example")

	task, err := mgr.Subscribe(`for $c in inCOM(<p>svc.example</p>)
where $c.callMethod = "Echo"
return <seen id="{$c.callId}"/>
by publish as channel "seen"`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := client.Endpoint().Invoke("svc.example", "Echo", xmltree.ElemText("x", "hi")); err != nil {
			t.Fatal(err)
		}
	}
	task.Stop()
	if got := len(task.Results().Drain()); got != 3 {
		t.Errorf("results = %d", got)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := p2pm.Parse("not p2pml"); err == nil {
		t.Error("garbage accepted")
	}
	sub, err := p2pm.Parse(`for $x in inCOM(<p>m</p>) return $x by channel C`)
	if err != nil || len(sub.For) != 1 {
		t.Fatalf("sub=%v err=%v", sub, err)
	}
}

func TestExplainRendersAllStages(t *testing.T) {
	out, err := p2pm.Explain(`for $c1 in outCOM(<p>a.com</p><p>b.com</p>),
    $c2 in inCOM(<p>meteo.com</p>)
where $c1.callMethod = "GetTemperature" and $c1.callId = $c2.callId
return <m/> by publish as channel "x"`, "p")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"== Subscription (P2PML) ==",
		"== Compiled plan",
		"== Optimized plan",
		"⋈@meteo.com",
		"∪@b.com",
		"σ@a.com",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	if _, err := p2pm.Explain("garbage", "p"); err == nil {
		t.Error("garbage explained")
	}
}

func TestMonitorExplainIncludesReuse(t *testing.T) {
	sys := p2pm.MustSystem(p2pm.DefaultConfig())
	mgr := sys.MustAddPeer("p")
	sys.MustAddPeer("m.com")
	sub := `for $e in inCOM(<p>m.com</p>) return $e by publish as channel "raw"`
	task, err := mgr.Subscribe(sub)
	if err != nil {
		t.Fatal(err)
	}
	defer task.Stop()
	out, err := sys.Explain(sub, "p")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== Stream reuse ==") {
		t.Errorf("reuse section missing:\n%s", out)
	}
	if out.Reuse == nil || len(out.Reuse.Mappings) == 0 {
		t.Error("expected reuse mappings against the deployed task")
	}
}
