package simnet

import (
	"testing"
	"time"

	"p2pm/internal/stream"
	"p2pm/internal/telemetry"
	"p2pm/internal/xmltree"
)

func TestClock(t *testing.T) {
	c := &Clock{}
	if c.Now() != 0 {
		t.Fatal("clock should start at 0")
	}
	c.Advance(3 * time.Second)
	if c.Now() != 3*time.Second {
		t.Errorf("now = %v", c.Now())
	}
}

func TestAddNodeIdempotent(t *testing.T) {
	nw := New(Options{Seed: 7})
	a := nw.AddNode("a.com")
	b := nw.AddNode("a.com")
	if a != b {
		t.Error("AddNode should return the existing node")
	}
	if nw.Node("a.com") == nil || nw.Node("missing") != nil {
		t.Error("Node lookup wrong")
	}
}

func TestLatencyProperties(t *testing.T) {
	nw := New(DefaultOptions())
	nw.AddNode("a")
	nw.AddNode("b")
	if nw.Latency("a", "a") != 0 {
		t.Error("local latency must be zero")
	}
	if nw.Latency("a", "b") < DefaultOptions().BaseLatency {
		t.Error("remote latency below base")
	}
	nw.SetLatency("a", "b", 42*time.Millisecond)
	if nw.Latency("a", "b") != 42*time.Millisecond {
		t.Error("override ignored")
	}
	// Override is directional.
	if nw.Latency("b", "a") == 42*time.Millisecond && nw.Distance("a", "b") > 0 {
		// Could coincide only by accident with the distance formula; the
		// override map must not apply in reverse.
		t.Log("reverse latency coincided; checking map not used")
	}
}

func TestDeterministicCoordinates(t *testing.T) {
	n1 := New(Options{Seed: 42})
	n2 := New(Options{Seed: 42})
	a1 := n1.AddNode("x")
	a2 := n2.AddNode("x")
	if a1.X != a2.X || a1.Y != a2.Y {
		t.Error("same seed should give same coordinates")
	}
}

func TestTransferAccounting(t *testing.T) {
	nw := New(DefaultOptions())
	nw.AddNode("a")
	nw.AddNode("b")
	it := stream.Item{Tree: xmltree.MustParse(`<alert callId="1"/>`)}
	size := it.Tree.SerializedSize()
	out := nw.Send("a", "b", it)
	if out.Time < nw.Latency("a", "b") {
		t.Errorf("arrival time %v < latency", out.Time)
	}
	tot := nw.Totals()
	if tot.Messages != 1 || tot.Bytes != uint64(size) || tot.Links != 1 {
		t.Errorf("totals = %+v", tot)
	}
	if got := nw.Link("a", "b"); got.Messages != 1 {
		t.Errorf("link = %+v", got)
	}
	// Local delivery is free and uncounted.
	nw.Send("a", "a", it)
	if nw.Totals().Messages != 1 {
		t.Error("local send counted")
	}
	nw.ResetTraffic()
	if nw.Totals().Messages != 0 {
		t.Error("reset failed")
	}
}

// TestTotalsResetButExportStaysCumulative: Totals() and the exported
// simnet_*_total read the same three counters; ResetTraffic rewinds
// what Totals reports, never what the registry exports.
func TestTotalsResetButExportStaysCumulative(t *testing.T) {
	nw := New(DefaultOptions())
	nw.AddNode("a")
	nw.AddNode("b")
	nw.CountTransfer("a", "b", 10) // before Instrument: lifetime totals
	reg := telemetry.NewRegistry()
	nw.Instrument(reg)
	nw.Instrument(reg)
	nw.Crash("b")
	if _, ok := nw.Ping("a", "b", 7); ok {
		t.Fatal("ping to a crashed node arrived")
	}
	exported := func() Totals {
		snap := reg.Snapshot()
		m, _ := snap.Get("simnet_messages_total")
		b, _ := snap.Get("simnet_bytes_total")
		d, _ := snap.Get("simnet_dropped_total")
		return Totals{Messages: uint64(m.Value), Bytes: uint64(b.Value), Dropped: uint64(d.Value), Links: 1}
	}
	if got, want := nw.Totals(), (Totals{Messages: 1, Bytes: 10, Dropped: 1, Links: 1}); got != want || exported() != want {
		t.Fatalf("totals = %+v, exported = %+v, want both %+v", got, exported(), want)
	}
	nw.ResetTraffic()
	nw.CountTransfer("a", "b", 5)
	if got, want := nw.Totals(), (Totals{Messages: 1, Bytes: 5, Links: 1}); got != want {
		t.Errorf("totals after reset = %+v, want %+v", got, want)
	}
	if got, want := exported(), (Totals{Messages: 2, Bytes: 15, Dropped: 1, Links: 1}); got != want {
		t.Errorf("exported after reset = %+v, want the cumulative %+v", got, want)
	}
}

func TestSendEOSNotCounted(t *testing.T) {
	nw := New(DefaultOptions())
	nw.AddNode("a")
	nw.AddNode("b")
	nw.Send("a", "b", stream.EOSItem("s@a"))
	if nw.Totals().Messages != 0 {
		t.Error("eos counted as traffic")
	}
}

func TestDeliverHookIntegratesWithChannel(t *testing.T) {
	nw := New(DefaultOptions())
	nw.AddNode("pub")
	nw.AddNode("sub")
	ch := stream.NewChannel("pub", "s")
	s := ch.Subscribe("sub", nw.DeliverHook("pub", "sub"))
	ch.Publish(stream.Item{Tree: xmltree.MustParse(`<a/>`)})
	ch.Close()
	got := s.Queue.Drain()
	if len(got) != 1 {
		t.Fatalf("got %d items", len(got))
	}
	if got[0].Time == 0 {
		t.Error("latency not applied")
	}
	if nw.Totals().Messages != 1 {
		t.Error("traffic not counted")
	}
}

func TestSendIgnoresWallClockScheduling(t *testing.T) {
	// Virtual arrival time depends only on the item's production time and
	// the link latency — never on when the delivering goroutine happens
	// to run relative to the global clock.
	nw := New(DefaultOptions())
	nw.AddNode("a")
	nw.AddNode("b")
	nw.Clock().Advance(time.Hour) // simulation has moved on
	out := nw.Send("a", "b", stream.Item{Tree: xmltree.Elem("x"), Time: time.Second})
	if want := time.Second + nw.Latency("a", "b"); out.Time != want {
		t.Errorf("arrival = %v, want %v", out.Time, want)
	}
}

func TestLoadGauge(t *testing.T) {
	nw := New(DefaultOptions())
	nw.AddNode("a")
	nw.AddLoad("a", 3)
	nw.AddLoad("a", -1)
	if nw.Load("a") != 2 {
		t.Errorf("load = %d", nw.Load("a"))
	}
	if nw.Load("missing") != 0 {
		t.Error("missing node load should be 0")
	}
}

func TestNodesSorted(t *testing.T) {
	nw := New(DefaultOptions())
	nw.AddNode("zeta")
	nw.AddNode("alpha")
	ns := nw.Nodes()
	if len(ns) != 2 || ns[0] != "alpha" {
		t.Errorf("nodes = %v", ns)
	}
}

func TestDistance(t *testing.T) {
	nw := New(DefaultOptions())
	nw.AddNode("a")
	nw.AddNode("b")
	if nw.Distance("a", "a") != 0 {
		t.Error("self distance should be 0")
	}
	if d := nw.Distance("a", "b"); d <= 0 || d > 1.5 {
		t.Errorf("distance = %f", d)
	}
}
