package peer

import (
	"testing"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// TestAnnounceReplicaEndToEnd closes the Figure 7 loop in the live
// system: a subscriber re-publishes a stream; a later subscription whose
// manager is close to the replica consumes from it instead of the
// original, and the data actually flows over the replica's links.
func TestAnnounceReplicaEndToEnd(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	m := sys.MustAddPeer("m.com")
	m.Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("ok"), nil
	}, nil)
	c := sys.MustAddPeer("c.com")

	p1 := sys.MustAddPeer("p1")
	base, err := p1.Subscribe(`for $e in inCOM(<p>m.com</p>)
where $e.callMethod = "Q"
return $e by publish as channel "qStream"`)
	if err != nil {
		t.Fatal(err)
	}

	// edge.com announces a replica of the σ output stream (the stream
	// below the publisher — find its ref from the task's plan).
	var sigmaRef = base.ResultChannel()
	for node, ref := range base.StreamRefs() {
		if node.Op == algebra.OpSelect {
			sigmaRef = ref
		}
	}
	sys.MustAddPeer("edge.com")
	repRef, err := sys.AnnounceReplica(sigmaRef, "edge.com")
	if err != nil {
		t.Fatal(err)
	}
	if repRef.PeerID != "edge.com" {
		t.Fatalf("replica ref = %v", repRef)
	}

	// far.com is network-close to edge.com and far from m.com.
	far := sys.MustAddPeer("far.com")
	sys.Net.SetLatency("edge.com", "far.com", time.Millisecond)
	sys.Net.SetLatency("m.com", "far.com", 200*time.Millisecond)
	// Make the distance metric agree with the latency override.
	sys.Net.Node("far.com").X = sys.Net.Node("edge.com").X
	sys.Net.Node("far.com").Y = sys.Net.Node("edge.com").Y

	t2, err := far.Subscribe(`for $e in inCOM(<p>m.com</p>)
where $e.callMethod = "Q" and $e.caller = "http://c.com"
return <hit id="{$e.callId}"/> by publish as channel "hits"`)
	if err != nil {
		t.Fatal(err)
	}
	// The residual σ must consume from the replica at edge.com.
	usedReplica := false
	t2.Plan.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpChannelIn && n.Channel == repRef {
			usedReplica = true
			if n.Origin != sigmaRef {
				t.Errorf("origin = %v, want %v", n.Origin, sigmaRef)
			}
		}
	})
	if !usedReplica {
		t.Fatalf("replica not chosen:\n%s", t2.Plan.Tree())
	}

	sys.Net.ResetTraffic()
	if _, err := c.Endpoint().Invoke("m.com", "Q", nil); err != nil {
		t.Fatal(err)
	}
	base.Stop()
	t2.Stop()
	if got := len(t2.Results().Drain()); got != 1 {
		t.Fatalf("results via replica = %d", got)
	}
	// The data reached far.com from edge.com, not directly from m.com.
	if sys.Net.Link("edge.com", "far.com").Messages == 0 {
		t.Error("no traffic on the replica link")
	}
	if sys.Net.Link("m.com", "far.com").Messages != 0 {
		t.Error("traffic bypassed the replica")
	}
}

func TestAnnounceReplicaUnknownChannel(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	sys.MustAddPeer("x")
	if _, err := sys.AnnounceReplica(stream.Ref{StreamID: "ghost", PeerID: "nowhere"}, "x"); err == nil {
		t.Error("unknown channel accepted")
	}
}

func TestRefreshStreamStats(t *testing.T) {
	sys := MustSystem(DefaultConfig())
	p := sys.MustAddPeer("p")
	m := sys.MustAddPeer("m.com")
	m.Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.Elem("ok"), nil
	}, nil)
	c := sys.MustAddPeer("c.com")
	task, err := p.Subscribe(`for $e in inCOM(<p>m.com</p>) return $e by publish as channel "raw"`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.Endpoint().Invoke("m.com", "Q", nil)
	}
	// The stats are refreshed while the task runs: Stop unregisters its
	// channels, and RefreshStreamStats reads the registered ones.
	sys.Quiesce()
	defer task.Stop()
	if err := sys.RefreshStreamStats(); err != nil {
		t.Fatal(err)
	}
	stats, _, err := sys.DB.StatsFor("p", task.ResultChannel())
	if err != nil {
		t.Fatal(err)
	}
	if stats["items"] != "4" {
		t.Errorf("items = %q (stats=%v)", stats["items"], stats)
	}
	if stats["volume"] == "" || stats["avgItemSize"] == "" {
		t.Errorf("volume stats missing: %v", stats)
	}
	// A refresh replaces the stream's record (latest wins) instead of
	// appending another: 100 rounds of a call, a Step and a refresh leave
	// one record under the result channel's stats key, and StatsFor
	// reads the newest counts.
	for i := 0; i < 100; i++ {
		c.Endpoint().Invoke("m.com", "Q", nil)
		sys.Step(time.Second)
		sys.Quiesce()
		if err := sys.RefreshStreamStats(); err != nil {
			t.Fatal(err)
		}
	}
	vals, _, err := sys.Ring.Get("p", "stats|"+task.ResultChannel().String())
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 {
		t.Errorf("%d stats records under the result channel after 101 refreshes, want 1", len(vals))
	}
	again, _, _ := sys.DB.StatsFor("p", task.ResultChannel())
	if again["items"] != "104" {
		t.Errorf("items after 101 refreshes = %q, want the newest count 104", again["items"])
	}
}
