package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"p2pm/internal/telemetry"
)

// every returns one populated example of every message kind. Tests that
// claim "every kind" range over this; TestEveryKindCovered enforces
// that no kind constant is missing from it.
func every() []Message {
	return []Message{
		&Hello{Peer: "n2", Proto: ProtoVersion, Cluster: "demo"},
		&Item{Stream: "s3@relay", Seq: 41, TimeNS: 9_500_000_000, XML: `<call id="7" method="Reserve"/>`},
		&Item{Stream: "s3@relay", Seq: 42, EOS: true},
		&Partial{Fn: "avg", Window: 6, Key: "eu-west", Source: "n3", Count: 18, State: "18|452"},
		&Probe{Seq: 12, Updates: []GossipUpdate{{Peer: "n4", Status: StatusSuspect, Inc: 3}}},
		&Ack{Seq: 12, Stream: "s1@n2", Window: 5, Updates: []GossipUpdate{{Peer: "n4", Status: StatusAlive, Inc: 4}}},
		&Gossip{Updates: []GossipUpdate{
			{Peer: "n1", Status: StatusAlive, Inc: 1},
			{Peer: "n5", Status: StatusDead, Inc: 2},
			{Peer: "n6", Status: StatusLeft, Inc: 7},
		}},
		&CkptPut{Key: "ckpt|task-3|s2@merge", Value: `<op kind="Group"><window id="4"/></op>`},
		&CkptGet{ReqID: 77, Key: "ckpt|task-3|s2@merge"},
		&CkptResp{ReqID: 77, Key: "ckpt|task-3|s2@merge", Found: true, Values: []string{"<op/>", "<op v=\"2\"/>"}},
		&Publish{Def: `<Stream PeerId="p1" StreamId="s1" isAChannel="true"><Operator><Filter/></Operator><Operands/><Stats/></Stream>`},
		&Lookup{ReqID: 8, Query: "sig|Filter(inCOM@p1)[a=b]"},
		&LookupResp{ReqID: 8, Values: []string{"<Stream/>"}},
	}
}

func TestEveryKindCovered(t *testing.T) {
	seen := map[Kind]bool{}
	for _, m := range every() {
		seen[m.Kind()] = true
	}
	for k := KindHello; k <= KindLookupResp; k++ {
		if !seen[k] {
			t.Errorf("every() has no example for kind %s", k)
		}
	}
}

// TestRoundTripEveryKind: decode(encode(m)) == m, and the encoding is
// deterministic (two encodes are byte-equal).
func TestRoundTripEveryKind(t *testing.T) {
	for _, m := range every() {
		b := Encode(m)
		if !bytes.Equal(b, Encode(m)) {
			t.Fatalf("%s: nondeterministic encoding", m.Kind())
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Kind(), err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: round trip mismatch\n got %#v\nwant %#v", m.Kind(), got, m)
		}
	}
}

// TestRoundTripProperty fuzzes random field values through the codec:
// arbitrary strings (including separators, NULs, non-UTF8) and uint64s
// must survive unchanged.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randStr := func() string {
		n := rng.Intn(40)
		b := make([]byte, n)
		rng.Read(b)
		return string(b)
	}
	for i := 0; i < 500; i++ {
		var ups []GossipUpdate
		for j := rng.Intn(4); j > 0; j-- {
			ups = append(ups, GossipUpdate{Peer: randStr(), Status: Status(rng.Intn(4)), Inc: rng.Uint64()})
		}
		msgs := []Message{
			&Item{Stream: randStr(), Seq: rng.Uint64(), TimeNS: rng.Uint64(), XML: randStr(), EOS: rng.Intn(2) == 0},
			&Partial{Fn: randStr(), Window: rng.Uint64(), Key: randStr(), Source: randStr(), Count: rng.Uint64(), State: randStr()},
			&Probe{Seq: rng.Uint64(), Updates: ups},
			&CkptPut{Key: randStr(), Value: randStr()},
		}
		for _, m := range msgs {
			got, err := Decode(Encode(m))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("round trip mismatch\n got %#v\nwant %#v", got, m)
			}
		}
	}
}

// TestCrossVersionUnknownFields: a frame stamped with a future protocol
// version and carrying unknown field tags decodes cleanly — the known
// fields land, the unknown ones are skipped. This is the forward-
// compatibility contract of docs/TRANSPORT.md.
func TestCrossVersionUnknownFields(t *testing.T) {
	b := Encode(&Partial{Fn: "count", Window: 3, Source: "n2", Count: 5, State: "5"})
	b[2] = ProtoVersion + 1 // future version
	// Append two fields from the future: tag 99 (string-ish) and tag
	// 100 (varint-ish). Decoders must skip both.
	b = appendStrField(b, 99, "a-field-from-the-future")
	b = appendUintField(b, 100, 12345)
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("cross-version decode: %v", err)
	}
	p, ok := got.(*Partial)
	if !ok {
		t.Fatalf("decoded %T, want *Partial", got)
	}
	want := &Partial{Fn: "count", Window: 3, Source: "n2", Count: 5, State: "5"}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("known fields corrupted by unknown ones:\n got %#v\nwant %#v", p, want)
	}
}

// TestUnknownFieldsInterleaved: unknown tags interleaved between known
// ones (not only appended) are skipped too.
func TestUnknownFieldsInterleaved(t *testing.T) {
	b := []byte{magic0, magic1, ProtoVersion, byte(KindLookup)}
	b = appendUintField(b, 1, 9)
	b = appendStrField(b, 7, "unknown middle field")
	b = appendStrField(b, 2, "sig|x")
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := &Lookup{ReqID: 9, Query: "sig|x"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %#v want %#v", got, want)
	}
}

// TestDecodeGarbage: hostile inputs error (never panic) and land in
// the dropped counter.
func TestDecodeGarbage(t *testing.T) {
	var st Stats
	cases := [][]byte{
		nil,
		{},
		{'P'},
		{'P', 'W'},
		{'P', 'W', 1},
		{'X', 'Y', 1, byte(KindItem)},          // bad magic
		{'P', 'W', 0, byte(KindItem)},          // version 0
		{'P', 'W', 1, 0},                       // kind 0
		{'P', 'W', 1, 200},                     // unknown kind
		{'P', 'W', 1, byte(KindItem), 0x80},    // truncated tag varint
		{'P', 'W', 1, byte(KindItem), 1, 0x80}, // truncated length varint
		{'P', 'W', 1, byte(KindItem), 1, 50, 'x'},                         // length overruns payload
		{'P', 'W', 1, byte(KindItem), 2, 1, 0xff},                         // seq field: bad uvarint value
		{'P', 'W', 1, byte(KindProbe), 2, 2, 0x80, 0x80},                  // update: corrupt sub-framing
		append([]byte{'P', 'W', 1, byte(KindCkptResp)}, 3, 2, 0xc0, 0xc0), // bool: bad uvarint
	}
	for i, c := range cases {
		if _, err := st.Decode(c); err == nil {
			t.Errorf("case %d (% x): expected decode error", i, c)
		}
	}
	if got := st.Dropped(); got != uint64(len(cases)) {
		t.Errorf("dropped counter = %d, want %d", got, len(cases))
	}
	if got := st.Decoded(); got != 0 {
		t.Errorf("decoded counter = %d, want 0", got)
	}
}

func TestStatsCountsSuccesses(t *testing.T) {
	var st Stats
	for _, m := range every() {
		if _, err := st.Decode(Encode(m)); err != nil {
			t.Fatalf("%s: %v", m.Kind(), err)
		}
	}
	if got, want := st.Decoded(), uint64(len(every())); got != want {
		t.Errorf("decoded = %d, want %d", got, want)
	}
	if st.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", st.Dropped())
	}
}

// TestStatsInstrumentExportsTheSameCounters: the registry series are the
// Stats' own two counters — equal to the accessors after any mix of
// outcomes — and exporting them changes nothing about Decode's cost.
func TestStatsInstrumentExportsTheSameCounters(t *testing.T) {
	good, bad := Encode(&Probe{Seq: 1}), []byte{'P', 'W', 0xff}
	allocs := func(st *Stats) float64 {
		return testing.AllocsPerRun(200, func() {
			st.Decode(good) //nolint:errcheck
			st.Decode(bad)  //nolint:errcheck
		})
	}
	var plain, exported Stats
	reg := telemetry.NewRegistry()
	exported.Instrument(reg, telemetry.L("peer", "n1"))
	exported.Instrument(reg, telemetry.L("peer", "n1")) // idempotent
	if a, b := allocs(&plain), allocs(&exported); a != b {
		t.Errorf("Decode allocates %.1f/op plain, %.1f/op exported", a, b)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{"wire_decoded_total": exported.Decoded(), "wire_dropped_total": exported.Dropped()} {
		m, ok := snap.Get(name, telemetry.L("peer", "n1"))
		if !ok || uint64(m.Value) != want || want == 0 {
			t.Errorf("%s = %d (present %v), want the accessor's %d", name, m.Value, ok, want)
		}
	}
}

// ---------------------------------------------------------------------
// Reference encoder: the pre-PR-17 implementation, kept verbatim. It
// builds every value in a temporary slice, which is what AppendEncode
// replaced; Encode must still produce these bytes exactly.

func appendField(dst []byte, tag uint64, val []byte) []byte {
	dst = binary.AppendUvarint(dst, tag)
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	return append(dst, val...)
}

func appendUintField(dst []byte, tag, v uint64) []byte {
	return appendField(dst, tag, binary.AppendUvarint(nil, v))
}

func appendStrField(dst []byte, tag uint64, s string) []byte {
	return appendField(dst, tag, []byte(s))
}

func appendUpdates(dst []byte, tag uint64, ups []GossipUpdate) []byte {
	for _, u := range ups {
		var v []byte
		v = appendStrField(v, 1, u.Peer)
		v = appendUintField(v, 2, uint64(u.Status))
		v = appendUintField(v, 3, u.Inc)
		dst = appendField(dst, tag, v)
	}
	return dst
}

func refEncode(m Message) []byte {
	b := []byte{magic0, magic1, ProtoVersion, byte(m.Kind())}
	switch t := m.(type) {
	case *Hello:
		b = appendStrField(b, 1, t.Peer)
		b = appendUintField(b, 2, t.Proto)
		b = appendStrField(b, 3, t.Cluster)
	case *Item:
		b = appendStrField(b, 1, t.Stream)
		b = appendUintField(b, 2, t.Seq)
		b = appendUintField(b, 3, t.TimeNS)
		b = appendStrField(b, 4, t.XML)
		if t.EOS {
			b = appendUintField(b, 5, 1)
		}
	case *Partial:
		b = appendStrField(b, 1, t.Fn)
		b = appendUintField(b, 2, t.Window)
		b = appendStrField(b, 3, t.Key)
		b = appendStrField(b, 4, t.Source)
		b = appendUintField(b, 5, t.Count)
		b = appendStrField(b, 6, t.State)
	case *Probe:
		b = appendUintField(b, 1, t.Seq)
		b = appendUpdates(b, 2, t.Updates)
	case *Ack:
		b = appendUintField(b, 1, t.Seq)
		b = appendUpdates(b, 2, t.Updates)
		b = appendStrField(b, 3, t.Stream)
		b = appendUintField(b, 4, t.Window)
	case *Gossip:
		b = appendUpdates(b, 1, t.Updates)
	case *CkptPut:
		b = appendStrField(b, 1, t.Key)
		b = appendStrField(b, 2, t.Value)
	case *CkptGet:
		b = appendUintField(b, 1, t.ReqID)
		b = appendStrField(b, 2, t.Key)
	case *CkptResp:
		b = appendUintField(b, 1, t.ReqID)
		b = appendStrField(b, 2, t.Key)
		if t.Found {
			b = appendUintField(b, 3, 1)
		}
		for _, v := range t.Values {
			b = appendStrField(b, 4, v)
		}
	case *Publish:
		b = appendStrField(b, 1, t.Def)
	case *Lookup:
		b = appendUintField(b, 1, t.ReqID)
		b = appendStrField(b, 2, t.Query)
	case *LookupResp:
		b = appendUintField(b, 1, t.ReqID)
		for _, v := range t.Values {
			b = appendStrField(b, 2, v)
		}
	default:
		panic(fmt.Sprintf("wire: refEncode of unknown message type %T", m))
	}
	return b
}

// randomMessages draws one message of every kind: strings of 0–300
// arbitrary bytes (a quarter of them empty), uvarints on and around
// every 7-bit length boundary, 0–3 gossip updates, 0–3 list values.
func randomMessages(rng *rand.Rand) []Message {
	str := func() string {
		if rng.Intn(4) == 0 {
			return ""
		}
		b := make([]byte, rng.Intn(301))
		rng.Read(b)
		return string(b)
	}
	num := func() uint64 {
		edge := uint64(1) << (7 * uint(rng.Intn(10))) // 1, 1<<7, …, 1<<63
		switch rng.Intn(4) {
		case 0:
			return edge - 1
		case 1:
			return edge
		case 2:
			return ^uint64(0)
		}
		return rng.Uint64() >> uint(rng.Intn(64))
	}
	ups := func() []GossipUpdate {
		var out []GossipUpdate
		for n := rng.Intn(4); n > 0; n-- {
			out = append(out, GossipUpdate{Peer: str(), Status: Status(rng.Intn(4)), Inc: num()})
		}
		return out
	}
	strs := func() []string {
		var out []string
		for n := rng.Intn(4); n > 0; n-- {
			out = append(out, str())
		}
		return out
	}
	flag := func() bool { return rng.Intn(2) == 0 }
	return []Message{
		&Hello{Peer: str(), Proto: num(), Cluster: str()},
		&Item{Stream: str(), Seq: num(), TimeNS: num(), XML: str(), EOS: flag()},
		&Partial{Fn: str(), Window: num(), Key: str(), Source: str(), Count: num(), State: str()},
		&Probe{Seq: num(), Updates: ups()},
		&Ack{Seq: num(), Updates: ups(), Stream: str(), Window: num()},
		&Gossip{Updates: ups()},
		&CkptPut{Key: str(), Value: str()},
		&CkptGet{ReqID: num(), Key: str()},
		&CkptResp{ReqID: num(), Key: str(), Found: flag(), Values: strs()},
		&Publish{Def: str()},
		&Lookup{ReqID: num(), Query: str()},
		&LookupResp{ReqID: num(), Values: strs()},
	}
}

// checkAgainstReference is the byte-identity gate: Encode equals the
// reference encoder, and Size equals the encoded length.
func checkAgainstReference(t *testing.T, m Message) {
	t.Helper()
	got, want := Encode(m), refEncode(m)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: Encode differs from the reference encoder\n got %x\nwant %x\n msg %#v", m.Kind(), got, want, m)
	}
	if Size(m) != len(want) {
		t.Fatalf("%s: Size=%d, len(Encode)=%d\n msg %#v", m.Kind(), Size(m), len(want), m)
	}
}

// TestSizeMatchesEncoding pins Size to the actual encoded length —
// transports charge byte counters from it — and Encode to the bytes the
// reference encoder produces, over every() and a seeded property run of
// all 12 kinds. Size counts; it must not allocate.
func TestSizeMatchesEncoding(t *testing.T) {
	for _, m := range every() {
		checkAgainstReference(t, m)
	}
	rng := rand.New(rand.NewSource(17))
	seen := map[Kind]bool{}
	for i := 0; i < 2000; i++ {
		for _, m := range randomMessages(rng) {
			seen[m.Kind()] = true
			checkAgainstReference(t, m)
		}
	}
	for k := KindHello; k <= KindLookupResp; k++ {
		if !seen[k] {
			t.Errorf("randomMessages draws no %s", k)
		}
	}
	for _, m := range every() {
		if n := testing.AllocsPerRun(100, func() { Size(m) }); n != 0 {
			t.Errorf("%s: Size allocates %v times, want 0", m.Kind(), n)
		}
	}
}

// TestAppendEncodeAppends: the prefix already in dst is preserved, and
// the appended bytes do not depend on how much spare capacity dst had.
func TestAppendEncodeAppends(t *testing.T) {
	prefix := []byte("\x00\x00\x00\x2aprefix")
	for _, m := range every() {
		want := append(append([]byte(nil), prefix...), refEncode(m)...)
		for _, spare := range []int{0, 1, len(want), 4096} {
			dst := make([]byte, len(prefix), len(prefix)+spare)
			copy(dst, prefix)
			if got := AppendEncode(dst, m); !bytes.Equal(got, want) {
				t.Errorf("%s, spare %d:\n got %x\nwant %x", m.Kind(), spare, got, want)
			}
		}
	}
}

// TestCodecAllocs pins the allocation budget the tcp hot path is built
// on: encoding into a warm buffer is free, and decoding an item costs
// the struct and its two strings — Decode copies every string out of
// its input, which is what lets the tcp reader reuse its buffer while
// handlers retain messages. A round trip through Encode, which builds
// its frame, is pinned per message kind: item 4, partial 6, probe 6.
func TestCodecAllocs(t *testing.T) {
	msgs := map[string]Message{
		"item":    &Item{Stream: "s3@relay", Seq: 412, TimeNS: 9_500_000_000, XML: `<call id="7" method="Reserve" to="airline"/>`},
		"partial": &Partial{Fn: "avg", Window: 6, Key: "eu-west", Source: "n3", Count: 1800, State: "1800|45210"},
		"probe": &Probe{Seq: 12, Updates: []GossipUpdate{
			{Peer: "n4", Status: StatusSuspect, Inc: 3}, {Peer: "n7", Status: StatusAlive, Inc: 9}}},
	}
	buf := make([]byte, 0, 4096)
	for name, m := range msgs {
		if n := testing.AllocsPerRun(200, func() { buf = AppendEncode(buf[:0], m) }); n != 0 {
			t.Errorf("AppendEncode(%s) into a warm buffer allocates %v times, want 0", name, n)
		}
	}
	enc := Encode(msgs["item"])
	if n := testing.AllocsPerRun(200, func() { Decode(enc) }); n != 3 { //nolint:errcheck // a valid frame
		t.Errorf("Decode(item) allocates %v times, want 3 (struct + Stream + XML)", n)
	}
	for name, want := range map[string]float64{"item": 4, "partial": 6, "probe": 6} {
		m := msgs[name]
		if n := testing.AllocsPerRun(200, func() { Decode(Encode(m)) }); n != want { //nolint:errcheck // a valid frame
			t.Errorf("Decode(Encode(%s)) allocates %v times, want %v", name, n, want)
		}
	}
}

// TestHeaderLayout pins the first four bytes: magic "PW", version,
// kind. The multi-process cluster depends on this layout across builds,
// so it is wire format, not an implementation detail.
func TestHeaderLayout(t *testing.T) {
	b := Encode(&Hello{Peer: "n1"})
	if b[0] != 'P' || b[1] != 'W' {
		t.Errorf("magic = %q, want \"PW\"", b[:2])
	}
	if b[2] != ProtoVersion {
		t.Errorf("version byte = %d, want %d", b[2], ProtoVersion)
	}
	if Kind(b[3]) != KindHello {
		t.Errorf("kind byte = %d, want %d", b[3], KindHello)
	}
}

// TestVarintBoundary: a max-uint64 survives (9-byte uvarint edge).
func TestVarintBoundary(t *testing.T) {
	m := &Item{Stream: "s@p", Seq: ^uint64(0), TimeNS: ^uint64(0)}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("got %#v want %#v", got, m)
	}
	// And reject a 10-byte overlong uvarint as a field value.
	over := binary.AppendUvarint(nil, ^uint64(0))
	over = append(over, 0x01) // trailing junk inside the value
	b := []byte{magic0, magic1, ProtoVersion, byte(KindItem)}
	b = appendField(b, 2, over)
	if _, err := Decode(b); err == nil {
		t.Error("overlong uvarint value decoded without error")
	}
}
