package kadop

import (
	"fmt"
	"testing"

	"p2pm/internal/dht"
	"p2pm/internal/stream"
)

func db(t *testing.T, peers int) *DB {
	t.Helper()
	ring := dht.New()
	for i := 0; i < peers; i++ {
		if err := ring.Join(fmt.Sprintf("peer-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return New(ring)
}

func ref(s string) stream.Ref {
	r, err := stream.ParseRef(s)
	if err != nil {
		panic(err)
	}
	return r
}

func alerterDef(r, fn string) *StreamDef {
	return &StreamDef{Ref: ref(r), Operator: fn, IsChannel: true,
		Signature: fn + "(" + ref(r).PeerID + ")", Stats: map[string]string{"avgVolume": "120"}}
}

func TestDefXMLRoundTrip(t *testing.T) {
	d := &StreamDef{
		Ref: ref("s3@p1"), IsChannel: true, Operator: "Filter",
		Signature: "Select{...}(inCOM(p1))",
		Operands:  []stream.Ref{ref("s1@p1")},
		Stats:     map[string]string{"avgVolume": "42"},
	}
	back, err := ParseDef(d.ToXML())
	if err != nil {
		t.Fatal(err)
	}
	if back.Ref != d.Ref || back.Operator != "Filter" || !back.IsChannel ||
		back.Signature != d.Signature || len(back.Operands) != 1 || back.Operands[0] != d.Operands[0] ||
		back.Stats["avgVolume"] != "42" {
		t.Errorf("round trip: %+v", back)
	}
}

func TestParseDefErrors(t *testing.T) {
	if _, err := ParseDef(nil); err == nil {
		t.Error("nil accepted")
	}
	d := alerterDef("s1@p1", "inCOM").ToXML()
	d.RemoveAttr("PeerId")
	if _, err := ParseDef(d); err == nil {
		t.Error("missing PeerId accepted")
	}
}

func TestIsSource(t *testing.T) {
	if !alerterDef("s1@p1", "inCOM").IsSource() {
		t.Error("alerter def should be a source")
	}
	d := &StreamDef{Ref: ref("s2@p1"), Operator: "Filter", Operands: []stream.Ref{ref("s1@p1")}}
	if d.IsSource() {
		t.Error("filter def is not a source")
	}
}

func TestFindAlerters(t *testing.T) {
	d := db(t, 10)
	if err := d.Publish(alerterDef("s1@p1", "inCOM")); err != nil {
		t.Fatal(err)
	}
	if err := d.Publish(alerterDef("s2@p2", "inCOM")); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.FindAlerters("peer-0", "p1", "inCOM")
	if err != nil || len(got) != 1 || got[0].Ref.String() != "s1@p1" {
		t.Fatalf("got %v err %v", got, err)
	}
	if got, _, _ := d.FindAlerters("peer-0", "p1", "outCOM"); len(got) != 0 {
		t.Errorf("wrong function matched: %v", got)
	}
}

func TestFindByOperand(t *testing.T) {
	d := db(t, 10)
	filter := &StreamDef{Ref: ref("s3@p1"), Operator: "Filter",
		Signature: "Select{F}(inCOM(p1))", Operands: []stream.Ref{ref("s1@p1")}}
	if err := d.Publish(filter); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.FindByOperand("peer-1", "Filter", ref("s1@p1"))
	if err != nil || len(got) != 1 || got[0].Ref.String() != "s3@p1" {
		t.Fatalf("got %v err %v", got, err)
	}
	if got, _, _ := d.FindByOperand("peer-1", "Join", ref("s1@p1")); len(got) != 0 {
		t.Errorf("operator constraint ignored: %v", got)
	}
}

func TestFindJoinByBothOperands(t *testing.T) {
	d := db(t, 10)
	join := &StreamDef{Ref: ref("s9@p3"), Operator: "Join",
		Signature: "Join{k}(A,B)",
		Operands:  []stream.Ref{ref("s3@p1"), ref("s2@p2")}}
	if err := d.Publish(join); err != nil {
		t.Fatal(err)
	}
	// The join is discoverable through either operand.
	a, _, _ := d.FindByOperand("", "Join", ref("s3@p1"))
	b, _, _ := d.FindByOperand("", "Join", ref("s2@p2"))
	if len(a) != 1 || len(b) != 1 || a[0].Ref != b[0].Ref {
		t.Errorf("a=%v b=%v", a, b)
	}
}

func TestFindBySignature(t *testing.T) {
	d := db(t, 10)
	def := &StreamDef{Ref: ref("s3@p1"), Operator: "Filter",
		Signature: "Select{@x = \"1\"}(inCOM(p1))", Operands: []stream.Ref{ref("s1@p1")}}
	if err := d.Publish(def); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.FindBySignature("peer-2", def.Signature)
	if err != nil || len(got) != 1 {
		t.Fatalf("got %v err %v", got, err)
	}
	if got, _, _ := d.FindBySignature("peer-2", "other"); len(got) != 0 {
		t.Error("wrong signature matched")
	}
}

func TestPublishValidation(t *testing.T) {
	d := db(t, 3)
	if err := d.Publish(&StreamDef{}); err == nil {
		t.Error("empty def accepted")
	}
	if err := d.Publish(&StreamDef{Ref: ref("s@p")}); err == nil {
		t.Error("def without operator accepted")
	}
}

func TestDuplicatePublishDedupedOnRead(t *testing.T) {
	d := db(t, 5)
	def := alerterDef("s1@p1", "inCOM")
	d.Publish(def)
	d.Publish(def)
	got, _, _ := d.FindAlerters("", "p1", "inCOM")
	if len(got) != 1 {
		t.Errorf("got %d defs", len(got))
	}
}

func TestReplicas(t *testing.T) {
	d := db(t, 10)
	orig := ref("alertQoS@meteo.com")
	if err := d.PublishReplica(orig, ref("r1@b.com")); err != nil {
		t.Fatal(err)
	}
	if err := d.PublishReplica(orig, ref("r2@c.com")); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.Replicas("peer-0", orig)
	if err != nil || len(got) != 2 {
		t.Fatalf("got %v err %v", got, err)
	}
	if got[0].String() != "r1@b.com" || got[1].String() != "r2@c.com" {
		t.Errorf("replicas = %v", got)
	}
}

// TestSection5XPathQueries runs the three discovery queries of Section 5
// verbatim (modulo the $-variable bindings) against a populated database
// through the XPath diagnostic interface.
func TestSection5XPathQueries(t *testing.T) {
	d := db(t, 8)
	defs := []*StreamDef{
		{Ref: ref("s1@p1"), Operator: "inCom", Signature: "inCom(p1)"},
		{Ref: ref("s3@p1"), Operator: "Filter", Signature: "F(s1)", Operands: []stream.Ref{ref("s1@p1")}},
		{Ref: ref("s2@p2"), Operator: "outCom", Signature: "outCom(p2)"},
		{Ref: ref("s9@p3"), Operator: "Join", Signature: "J(s3,s2)",
			Operands: []stream.Ref{ref("s3@p1"), ref("s2@p2")}},
	}
	for _, def := range defs {
		if err := d.PublishIndexed(def); err != nil {
			t.Fatal(err)
		}
	}

	q1 := `/Stream[@PeerId = $p1][Operator/inCom]`
	got, err := d.QueryXPath(q1, map[string]string{"p1": "p1"})
	if err != nil || len(got) != 1 || got[0].Ref.String() != "s1@p1" {
		t.Fatalf("q1: %v err %v", got, err)
	}

	q2 := `/Stream[Operator/Filter][Operands/Operand[@OPeerId=$p1][@OStreamId=$s1]]`
	got, err = d.QueryXPath(q2, map[string]string{"p1": "p1", "s1": "s1"})
	if err != nil || len(got) != 1 || got[0].Ref.String() != "s3@p1" {
		t.Fatalf("q2: %v err %v", got, err)
	}

	q3 := `/Stream[Operator/Join][Operands/Operand[@OPeerId=$p1][@OStreamId=$s3]][Operands/Operand[@OPeerId=$p2][@OStreamId=$s2]]`
	got, err = d.QueryXPath(q3, map[string]string{"p1": "p1", "s3": "s3", "p2": "p2", "s2": "s2"})
	if err != nil || len(got) != 1 || got[0].Ref.String() != "s9@p3" {
		t.Fatalf("q3: %v err %v", got, err)
	}
}

func TestDocumentAssemblesIndexedDefs(t *testing.T) {
	d := db(t, 6)
	d.PublishIndexed(alerterDef("s1@p1", "inCOM"))
	d.PublishIndexed(alerterDef("s2@p2", "outCOM"))
	d.Publish(alerterDef("s3@p3", "inCOM")) // not in the enumeration index
	doc := d.Document()
	if got := len(doc.ChildrenByLabel("Stream")); got != 2 {
		t.Errorf("document streams = %d, want 2 (only indexed defs)", got)
	}
	if d.Defs() != 3 {
		t.Errorf("Defs = %d", d.Defs())
	}
}

func TestQueryXPathNonStreamRootedQuery(t *testing.T) {
	d := db(t, 4)
	d.PublishIndexed(alerterDef("s1@p1", "inCOM"))
	// A query already rooted elsewhere passes through unchanged.
	got, err := d.QueryXPath(`/db/Stream[@PeerId = "p1"]`, nil)
	if err != nil || len(got) != 1 {
		t.Fatalf("got %v err %v", got, err)
	}
	if _, err := d.QueryXPath(`/Stream[`, nil); err == nil {
		t.Error("bad query accepted")
	}
}

func TestUpdateAndReadStats(t *testing.T) {
	d := db(t, 6)
	r := ref("s1@p1")
	if err := d.UpdateStats(r, map[string]string{"items": "10", "volume": "900"}); err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateStats(r, map[string]string{"items": "25", "volume": "2100"}); err != nil {
		t.Fatal(err)
	}
	stats, _, err := d.StatsFor("peer-0", r)
	if err != nil {
		t.Fatal(err)
	}
	if stats["items"] != "25" || stats["volume"] != "2100" {
		t.Errorf("latest stats not returned: %v", stats)
	}
	// Unknown stream: empty, no error.
	none, _, err := d.StatsFor("peer-0", ref("ghost@p9"))
	if err != nil || none != nil {
		t.Errorf("none=%v err=%v", none, err)
	}
}

func TestReplicasEmpty(t *testing.T) {
	d := db(t, 4)
	got, _, err := d.Replicas("", ref("s1@p1"))
	if err != nil || len(got) != 0 {
		t.Errorf("got %v err %v", got, err)
	}
}

func TestFindByRefMissing(t *testing.T) {
	d := db(t, 4)
	def, _, err := d.FindByRef("", ref("nope@p"))
	if err != nil || def != nil {
		t.Errorf("def=%v err=%v", def, err)
	}
}

func TestCondsRoundTripInDescriptor(t *testing.T) {
	d := &StreamDef{
		Ref: ref("s3@p1"), Operator: "Filter",
		Operands: []stream.Ref{ref("s1@p1")},
		Conds:    []string{`$_.callMethod = "Q"`, `$_.fault != ""`},
	}
	back, err := ParseDef(d.ToXML())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Conds) != 2 || back.Conds[0] != d.Conds[0] || back.Conds[1] != d.Conds[1] {
		t.Errorf("conds = %v", back.Conds)
	}
}

func TestLookupReportsHops(t *testing.T) {
	d := db(t, 64)
	d.Publish(alerterDef("s1@p1", "inCOM"))
	_, hops, err := d.FindAlerters("peer-63", "p1", "inCOM")
	if err != nil {
		t.Fatal(err)
	}
	if hops < 0 || hops > 64 {
		t.Errorf("hops = %d", hops)
	}
}

func TestCheckpointLatestWinsAndSurvivesCrash(t *testing.T) {
	ring := dht.New()
	ring.SetReplication(2)
	for i := 0; i < 8; i++ {
		if err := ring.Join(fmt.Sprintf("peer-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	d := New(ring)
	for i := 0; i < 3; i++ {
		if err := d.PutCheckpoint("task-1", "s1@p1", fmt.Sprintf("<ckpt v=\"%d\"/>", i)); err != nil {
			t.Fatal(err)
		}
	}
	got, ok, err := d.Checkpoint("peer-3", "task-1", "s1@p1")
	if err != nil || !ok || got != `<ckpt v="2"/>` {
		t.Fatalf("checkpoint = (%q, %v, %v), want latest record", got, ok, err)
	}
	// The checkpoint must outlive the crash of a node holding it.
	holders := ring.Holders(CheckpointKey("task-1", "s1@p1"))
	if len(holders) != 2 {
		t.Fatalf("checkpoint holders = %v, want 2", holders)
	}
	if err := ring.Fail(holders[0]); err != nil {
		t.Fatal(err)
	}
	got, ok, err = d.Checkpoint("peer-3", "task-1", "s1@p1")
	if err != nil || !ok || got != `<ckpt v="2"/>` {
		t.Fatalf("checkpoint after holder crash = (%q, %v, %v)", got, ok, err)
	}
	if _, ok, _ := d.Checkpoint("peer-3", "task-9", "s1@p1"); ok {
		t.Error("missing checkpoint reported ok")
	}
}

// TestCheckpointSurvivesElasticHandoff: a checkpoint record written
// before a membership change stays readable (latest wins) after virtual-
// node rebalancing hands its key to new owners, and the service-load
// counters attribute the traffic to exactly one primary per operation.
func TestCheckpointSurvivesElasticHandoff(t *testing.T) {
	ring := dht.New()
	ring.SetReplication(2)
	ring.SetVirtual(32)
	for i := 0; i < 6; i++ {
		if err := ring.Join(fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	db := New(ring)
	if err := db.PutCheckpoint("task-1", "relay", "<Ckpt outSeq=\"1\"/>"); err != nil {
		t.Fatal(err)
	}
	if err := ring.Join("p6"); err != nil {
		t.Fatal(err)
	}
	if err := db.PutCheckpoint("task-1", "relay", "<Ckpt outSeq=\"2\"/>"); err != nil {
		t.Fatal(err)
	}
	if err := ring.Fail("p0"); err != nil {
		t.Fatal(err)
	}
	got, ok, err := db.Checkpoint("p1", "task-1", "relay")
	if err != nil || !ok {
		t.Fatalf("checkpoint lost across join+fail: ok=%v err=%v", ok, err)
	}
	if got != "<Ckpt outSeq=\"2\"/>" {
		t.Fatalf("checkpoint = %q, want the latest write", got)
	}
	var puts, gets uint64
	for _, l := range db.CheckpointLoad() {
		puts += l.Puts
		gets += l.Gets
	}
	if puts != 2 || gets != 1 {
		t.Errorf("ckpt load: puts=%d gets=%d, want 2/1", puts, gets)
	}
	db.ResetLoad()
	for name, l := range db.CheckpointLoad() {
		if l.Puts+l.Gets != 0 {
			t.Errorf("%s still loaded after reset: %+v", name, l)
		}
	}
}

// TestRetractWithdrawsEveryIndexEntry: a retracted stream leaves every
// discovery query, the enumeration index, its replica records and the
// memo; the streams published beside it stay.
func TestRetractWithdrawsEveryIndexEntry(t *testing.T) {
	d := db(t, 6)
	src, other := alerterDef("s1@p1", "inCOM"), alerterDef("s1@p2", "inCOM")
	filter := &StreamDef{Ref: ref("f1@p1"), Operator: "Filter", IsChannel: true, Signature: "Filter{x}(inCOM(p1))",
		Operands: []stream.Ref{src.Ref}, Conds: []string{"x"}, Group: "count", Sources: []string{"inCOM(p1)"}}
	for _, def := range []*StreamDef{src, other, filter} {
		if err := d.PublishIndexed(def); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.PublishReplica(filter.Ref, ref("r1@p3")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.FindBySignature("peer-0", filter.Signature); err != nil {
		t.Fatal(err) // fills the memo
	}
	if err := d.Retract("peer-0", filter.Ref); err != nil {
		t.Fatal(err)
	}
	for what, found := range map[string]func() (int, error){
		"FindBySignature": func() (int, error) { ds, _, err := d.FindBySignature("peer-1", filter.Signature); return len(ds), err },
		"FindByOperand":   func() (int, error) { ds, _, err := d.FindByOperand("peer-1", "Filter", src.Ref); return len(ds), err },
		"FindAggParts":    func() (int, error) { ds, _, err := d.FindAggParts("peer-1", "count"); return len(ds), err },
		"Replicas":        func() (int, error) { rs, _, err := d.Replicas("peer-1", filter.Ref); return len(rs), err },
		"FindByRef": func() (int, error) {
			def, _, err := d.FindByRef("peer-1", filter.Ref)
			if def == nil {
				return 0, err
			}
			return 1, err
		},
	} {
		if n, err := found(); n != 0 || err != nil {
			t.Errorf("%s still finds the retracted stream (%d, %v)", what, n, err)
		}
	}
	if got := len(d.Document().Children); got != 2 {
		t.Errorf("the enumeration index lists %d streams, want the 2 not retracted", got)
	}
	if ds, _, _ := d.FindAlerters("peer-1", "p1", "inCOM"); len(ds) != 1 {
		t.Errorf("the filter's operand went with it: %v", ds)
	}
	if n, err := d.VerifyMemo(); err != nil || n != 1 {
		t.Errorf("memo holds %d descriptors (%v), want the operand's alone", n, err)
	}
}
