// Package wire is the versioned, deterministic codec for every message
// that crosses a peer boundary: stream items, <partial> monoid
// aggregation payloads, gossip probe/ack/membership updates, DHT
// checkpoint put/get, and stream-definition publish/lookup. The same
// bytes travel over both transport backends — in-process simnet counts
// their length against its link statistics, the tcp backend writes them
// into length-prefixed frames — so a scenario's traffic is identical no
// matter which substrate carries it (docs/TRANSPORT.md).
//
// Encoding is a fixed header (magic "PW", version, kind) followed by
// tagged fields: tag uvarint, length uvarint, value bytes, in ascending
// tag order. Integers are uvarints inside the value; strings are raw
// bytes; repeated tags build lists in order. The tagging buys forward
// compatibility: a decoder skips tags it does not know, so a newer
// peer can add fields without breaking an older one, and a version
// bump alone never makes a message unreadable. Decode never panics on
// garbage — every malformed input returns an error, which transports
// count in their dropped-message statistics.
package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"p2pm/internal/telemetry"
)

// ProtoVersion is the wire protocol version this codec emits. Decoders
// accept any version ≥ 1 and skip unknown fields; a reader only refuses
// bytes whose header it cannot parse at all.
const ProtoVersion = 1

// magic identifies a wire message ("PW" = P2PM wire).
const (
	magic0 = 'P'
	magic1 = 'W'
)

// headerLen is magic(2) + version(1) + kind(1).
const headerLen = 4

// Kind identifies a message type.
type Kind byte

// Message kinds. The values are wire format — never renumber.
const (
	KindHello      Kind = 1  // connection handshake: who is speaking
	KindItem       Kind = 2  // one stream item (serialized XML tree)
	KindPartial    Kind = 3  // one monoid partial-aggregation state
	KindProbe      Kind = 4  // gossip liveness probe (+ piggyback)
	KindAck        Kind = 5  // gossip probe ack / partial-receipt ack
	KindGossip     Kind = 6  // standalone membership update batch
	KindCkptPut    Kind = 7  // DHT checkpoint store
	KindCkptGet    Kind = 8  // DHT checkpoint fetch
	KindCkptResp   Kind = 9  // DHT checkpoint fetch response
	KindPublish    Kind = 10 // stream-definition publish (reuse layer)
	KindLookup     Kind = 11 // stream-definition lookup (reuse layer)
	KindLookupResp Kind = 12 // stream-definition lookup response
)

// String names a kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindItem:
		return "item"
	case KindPartial:
		return "partial"
	case KindProbe:
		return "probe"
	case KindAck:
		return "ack"
	case KindGossip:
		return "gossip"
	case KindCkptPut:
		return "ckpt-put"
	case KindCkptGet:
		return "ckpt-get"
	case KindCkptResp:
		return "ckpt-resp"
	case KindPublish:
		return "publish"
	case KindLookup:
		return "lookup"
	case KindLookupResp:
		return "lookup-resp"
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// Message is one decoded wire message.
type Message interface {
	Kind() Kind
}

// Status is the wire representation of a gossip membership opinion.
// The values are wire format and the canonical cross-peer encoding of
// the detector's internal states.
type Status byte

const (
	StatusAlive   Status = 0
	StatusSuspect Status = 1
	StatusDead    Status = 2
	// StatusLeft marks a graceful departure: no suspicion window, no
	// death event, the member is simply gone (docs/MEMBERSHIP.md).
	StatusLeft Status = 3
)

// String names a status.
func (s Status) String() string {
	switch s {
	case StatusAlive:
		return "alive"
	case StatusSuspect:
		return "suspect"
	case StatusDead:
		return "dead"
	case StatusLeft:
		return "left"
	}
	return fmt.Sprintf("status(%d)", byte(s))
}

// Hello opens every tcp connection: it names the dialing peer so the
// accepting side can attribute all later frames on the connection.
type Hello struct {
	// Peer is the sender's peer name.
	Peer string
	// Proto is the sender's ProtoVersion.
	Proto uint64
	// Cluster names the deployment; mismatched clusters refuse the
	// connection rather than silently cross-feed.
	Cluster string
}

func (*Hello) Kind() Kind { return KindHello }

// Item carries one stream item: a serialized XML tree plus the
// stream identity, sequence number and virtual timestamp that the
// in-process representation (stream.Item) carries as struct fields.
type Item struct {
	// Stream is the producing stream in s@p notation.
	Stream string
	// Seq is the item's sequence number within the stream.
	Seq uint64
	// TimeNS is the production timestamp in nanoseconds.
	TimeNS uint64
	// XML is the serialized tree; empty together with EOS=true is the
	// end-of-stream symbol.
	XML string
	// EOS marks the end-of-stream terminator.
	EOS bool
}

func (*Item) Kind() Kind { return KindItem }

// Partial carries one monoid partial-aggregation state — the wire form
// of the <partial> payloads the aggregation trees exchange. State is
// the monoid's deterministic Encode (internal/monoid); the receiver
// Decodes and Merges it, rejecting malformed states into its dropped
// counter exactly like parsePartial does on simnet.
type Partial struct {
	// Fn names the aggregate function in the monoid registry.
	Fn string
	// Window is the window index the state belongs to.
	Window uint64
	// Key is the group key within the window.
	Key string
	// Source names the peer (or leaf stream) that produced the state.
	Source string
	// Count is the number of raw values absorbed into the state, for
	// completeness accounting.
	Count uint64
	// State is the monoid's Encode output.
	State string
}

func (*Partial) Kind() Kind { return KindPartial }

// GossipUpdate is one piggybacked membership statement.
type GossipUpdate struct {
	Peer   string
	Status Status
	Inc    uint64
}

// Probe is a gossip liveness probe with piggybacked updates.
type Probe struct {
	Seq     uint64
	Updates []GossipUpdate
}

func (*Probe) Kind() Kind { return KindProbe }

// Ack answers a Probe (echoing its Seq) and doubles as the receipt ack
// of a Partial: Stream/AckSeq identify what is being acknowledged when
// the ack is not answering a probe.
type Ack struct {
	Seq     uint64
	Updates []GossipUpdate
	// Stream and Window acknowledge receipt of a Partial from Stream
	// for window Window (exactly-once resend protocol).
	Stream string
	Window uint64
}

func (*Ack) Kind() Kind { return KindAck }

// Gossip is a standalone batch of membership updates (anti-entropy
// push when no probe is due).
type Gossip struct {
	Updates []GossipUpdate
}

func (*Gossip) Kind() Kind { return KindGossip }

// CkptPut stores one operator checkpoint under its key (latest wins,
// kadop.PutCheckpoint semantics).
type CkptPut struct {
	Key string
	// Value is the serialized checkpoint XML.
	Value string
}

func (*CkptPut) Kind() Kind { return KindCkptPut }

// CkptGet fetches the checkpoint stored under Key.
type CkptGet struct {
	ReqID uint64
	Key   string
}

func (*CkptGet) Kind() Kind { return KindCkptGet }

// CkptResp answers a CkptGet.
type CkptResp struct {
	ReqID uint64
	Key   string
	Found bool
	// Values are the stored records, oldest first (latest wins).
	Values []string
}

func (*CkptResp) Kind() Kind { return KindCkptResp }

// Publish indexes a stream descriptor (kadop.StreamDef XML) in the
// stream-definition database — the reuse layer's publication path.
type Publish struct {
	// Def is the descriptor in the kadop <Stream> schema.
	Def string
}

func (*Publish) Kind() Kind { return KindPublish }

// Lookup queries the stream-definition database by index key
// (signature, operand, aggregate identity, replica — the kadop keys).
type Lookup struct {
	ReqID uint64
	Query string
}

func (*Lookup) Kind() Kind { return KindLookup }

// LookupResp answers a Lookup with the raw descriptor values.
type LookupResp struct {
	ReqID  uint64
	Values []string
}

func (*LookupResp) Kind() Kind { return KindLookupResp }

// Stats counts codec outcomes on one transport. All methods are safe
// for concurrent use.
type Stats struct {
	decoded, dropped telemetry.Counter
}

// Instrument exports the two counts as wire_decoded_total /
// wire_dropped_total under the owning transport's labels.
func (s *Stats) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	reg.Attach("wire_decoded_total", &s.decoded, labels...)
	reg.Attach("wire_dropped_total", &s.dropped, labels...)
}

// Decoded returns how many messages decoded successfully.
func (s *Stats) Decoded() uint64 { return s.decoded.Value() }

// Dropped returns how many inputs were rejected by Decode. A garbage
// or truncated frame lands here instead of crashing the reader.
func (s *Stats) Dropped() uint64 { return s.dropped.Value() }

// Decode decodes counting the outcome into the stats.
func (s *Stats) Decode(b []byte) (Message, error) {
	m, err := Decode(b)
	if err != nil {
		s.dropped.Inc()
		return nil, err
	}
	s.decoded.Inc()
	return m, nil
}

// ---------------------------------------------------------------------
// Encoding

// enc is the sink of the one field walk (fields): it either appends
// the encoding to b or, when count is set, only adds its length to n —
// so Size and AppendEncode cannot disagree about a field.
type enc struct {
	b     []byte
	n     int
	count bool
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// field writes the tag and length of a field whose value takes n
// bytes; the caller appends the value. Counting, it adds all three.
func (e *enc) field(tag uint64, n int) {
	if e.count {
		e.n += uvarintLen(tag) + uvarintLen(uint64(n)) + n
		return
	}
	e.b = binary.AppendUvarint(e.b, tag)
	e.b = binary.AppendUvarint(e.b, uint64(n))
}

func (e *enc) uint(tag, v uint64) {
	e.field(tag, uvarintLen(v))
	if !e.count {
		e.b = binary.AppendUvarint(e.b, v)
	}
}

func (e *enc) str(tag uint64, s string) {
	e.field(tag, len(s))
	if !e.count {
		e.b = append(e.b, s...)
	}
}

func (e *enc) flag(tag uint64, set bool) {
	if set {
		e.uint(tag, 1)
	}
}

func (e *enc) strs(tag uint64, vals []string) {
	for _, v := range vals {
		e.str(tag, v)
	}
}

func (e *enc) update(u GossipUpdate) {
	e.str(1, u.Peer)
	e.uint(2, uint64(u.Status))
	e.uint(3, u.Inc)
}

// updates writes each update as one nested field, its length counted
// by the same walk that then writes it.
func (e *enc) updates(tag uint64, ups []GossipUpdate) {
	for _, u := range ups {
		inner := enc{count: true}
		inner.update(u)
		e.field(tag, inner.n)
		if !e.count {
			e.update(u)
		}
	}
}

// fields walks a message's fields in tag order.
func (e *enc) fields(m Message) {
	switch t := m.(type) {
	case *Hello:
		e.str(1, t.Peer)
		e.uint(2, t.Proto)
		e.str(3, t.Cluster)
	case *Item:
		e.str(1, t.Stream)
		e.uint(2, t.Seq)
		e.uint(3, t.TimeNS)
		e.str(4, t.XML)
		e.flag(5, t.EOS)
	case *Partial:
		e.str(1, t.Fn)
		e.uint(2, t.Window)
		e.str(3, t.Key)
		e.str(4, t.Source)
		e.uint(5, t.Count)
		e.str(6, t.State)
	case *Probe:
		e.uint(1, t.Seq)
		e.updates(2, t.Updates)
	case *Ack:
		e.uint(1, t.Seq)
		e.updates(2, t.Updates)
		e.str(3, t.Stream)
		e.uint(4, t.Window)
	case *Gossip:
		e.updates(1, t.Updates)
	case *CkptPut:
		e.str(1, t.Key)
		e.str(2, t.Value)
	case *CkptGet:
		e.uint(1, t.ReqID)
		e.str(2, t.Key)
	case *CkptResp:
		e.uint(1, t.ReqID)
		e.str(2, t.Key)
		e.flag(3, t.Found)
		e.strs(4, t.Values)
	case *Publish:
		e.str(1, t.Def)
	case *Lookup:
		e.uint(1, t.ReqID)
		e.str(2, t.Query)
	case *LookupResp:
		e.uint(1, t.ReqID)
		e.strs(2, t.Values)
	default:
		panic(fmt.Sprintf("wire: encoding unknown message type %T", m))
	}
}

// AppendEncode appends a message's encoding to dst and returns the
// extended slice. The encoding is deterministic: equal messages encode
// to equal bytes (fields in fixed tag order, lists in caller order, no
// maps). Appending into a buffer with room allocates nothing.
func AppendEncode(dst []byte, m Message) []byte {
	e := enc{b: append(dst, magic0, magic1, ProtoVersion, byte(m.Kind()))}
	e.fields(m)
	return e.b
}

// Encode renders a message into a fresh slice of exactly its size.
func Encode(m Message) []byte { return AppendEncode(make([]byte, 0, Size(m)), m) }

// Size returns the encoded length of a message — what a transport
// charges against its byte counters — without building the encoding.
func Size(m Message) int {
	e := enc{n: headerLen, count: true}
	e.fields(m)
	return e.n
}

// ---------------------------------------------------------------------
// Decoding

// fieldIter walks the tagged fields of a payload.
type fieldIter struct {
	b []byte
}

// next returns the next (tag, value) pair. done=true ends the walk;
// err is a malformed field (truncated varint or overlong length).
func (it *fieldIter) next() (tag uint64, val []byte, done bool, err error) {
	if len(it.b) == 0 {
		return 0, nil, true, nil
	}
	tag, n := binary.Uvarint(it.b)
	if n <= 0 {
		return 0, nil, false, fmt.Errorf("wire: bad field tag")
	}
	it.b = it.b[n:]
	ln, n := binary.Uvarint(it.b)
	if n <= 0 {
		return 0, nil, false, fmt.Errorf("wire: bad field length")
	}
	it.b = it.b[n:]
	if ln > uint64(len(it.b)) {
		return 0, nil, false, fmt.Errorf("wire: field length %d exceeds remaining %d bytes", ln, len(it.b))
	}
	val = it.b[:ln]
	it.b = it.b[ln:]
	return tag, val, false, nil
}

func decodeUint(val []byte) (uint64, error) {
	v, n := binary.Uvarint(val)
	if n <= 0 || n != len(val) {
		return 0, fmt.Errorf("wire: bad uvarint value")
	}
	return v, nil
}

func decodeUpdate(val []byte) (GossipUpdate, error) {
	var u GossipUpdate
	it := fieldIter{b: val}
	for {
		tag, v, done, err := it.next()
		if err != nil {
			return u, err
		}
		if done {
			return u, nil
		}
		switch tag {
		case 1:
			u.Peer = string(v)
		case 2:
			s, err := decodeUint(v)
			if err != nil {
				return u, err
			}
			u.Status = Status(s)
		case 3:
			inc, err := decodeUint(v)
			if err != nil {
				return u, err
			}
			u.Inc = inc
		}
	}
}

// Decode parses an encoded message. It never panics: malformed input —
// wrong magic, truncated header, corrupt field framing — returns an
// error. Unknown field tags are skipped (a newer peer's extra fields
// decode cleanly on an older one), and the version byte is informative
// only: any version ≥ 1 is read with the same field rules.
func Decode(b []byte) (Message, error) {
	if len(b) < headerLen {
		return nil, fmt.Errorf("wire: message truncated at %d bytes", len(b))
	}
	if b[0] != magic0 || b[1] != magic1 {
		return nil, fmt.Errorf("wire: bad magic %#02x%02x", b[0], b[1])
	}
	if b[2] < 1 {
		return nil, fmt.Errorf("wire: bad protocol version %d", b[2])
	}
	kind := Kind(b[3])
	it := fieldIter{b: b[headerLen:]}

	var msg Message
	switch kind {
	case KindHello:
		msg = &Hello{}
	case KindItem:
		msg = &Item{}
	case KindPartial:
		msg = &Partial{}
	case KindProbe:
		msg = &Probe{}
	case KindAck:
		msg = &Ack{}
	case KindGossip:
		msg = &Gossip{}
	case KindCkptPut:
		msg = &CkptPut{}
	case KindCkptGet:
		msg = &CkptGet{}
	case KindCkptResp:
		msg = &CkptResp{}
	case KindPublish:
		msg = &Publish{}
	case KindLookup:
		msg = &Lookup{}
	case KindLookupResp:
		msg = &LookupResp{}
	default:
		return nil, fmt.Errorf("wire: unknown message kind %d", byte(kind))
	}

	for {
		tag, val, done, err := it.next()
		if err != nil {
			return nil, err
		}
		if done {
			return msg, nil
		}
		if err := setField(msg, tag, val); err != nil {
			return nil, err
		}
	}
}

// setField assigns one decoded field; unknown tags are ignored.
func setField(msg Message, tag uint64, val []byte) error {
	asUint := func(dst *uint64) error {
		v, err := decodeUint(val)
		if err != nil {
			return err
		}
		*dst = v
		return nil
	}
	asBool := func(dst *bool) error {
		v, err := decodeUint(val)
		if err != nil {
			return err
		}
		*dst = v != 0
		return nil
	}
	asUpdate := func(dst *[]GossipUpdate) error {
		u, err := decodeUpdate(val)
		if err != nil {
			return err
		}
		*dst = append(*dst, u)
		return nil
	}
	switch t := msg.(type) {
	case *Hello:
		switch tag {
		case 1:
			t.Peer = string(val)
		case 2:
			return asUint(&t.Proto)
		case 3:
			t.Cluster = string(val)
		}
	case *Item:
		switch tag {
		case 1:
			t.Stream = string(val)
		case 2:
			return asUint(&t.Seq)
		case 3:
			return asUint(&t.TimeNS)
		case 4:
			t.XML = string(val)
		case 5:
			return asBool(&t.EOS)
		}
	case *Partial:
		switch tag {
		case 1:
			t.Fn = string(val)
		case 2:
			return asUint(&t.Window)
		case 3:
			t.Key = string(val)
		case 4:
			t.Source = string(val)
		case 5:
			return asUint(&t.Count)
		case 6:
			t.State = string(val)
		}
	case *Probe:
		switch tag {
		case 1:
			return asUint(&t.Seq)
		case 2:
			return asUpdate(&t.Updates)
		}
	case *Ack:
		switch tag {
		case 1:
			return asUint(&t.Seq)
		case 2:
			return asUpdate(&t.Updates)
		case 3:
			t.Stream = string(val)
		case 4:
			return asUint(&t.Window)
		}
	case *Gossip:
		if tag == 1 {
			return asUpdate(&t.Updates)
		}
	case *CkptPut:
		switch tag {
		case 1:
			t.Key = string(val)
		case 2:
			t.Value = string(val)
		}
	case *CkptGet:
		switch tag {
		case 1:
			return asUint(&t.ReqID)
		case 2:
			t.Key = string(val)
		}
	case *CkptResp:
		switch tag {
		case 1:
			return asUint(&t.ReqID)
		case 2:
			t.Key = string(val)
		case 3:
			return asBool(&t.Found)
		case 4:
			t.Values = append(t.Values, string(val))
		}
	case *Publish:
		if tag == 1 {
			t.Def = string(val)
		}
	case *Lookup:
		switch tag {
		case 1:
			return asUint(&t.ReqID)
		case 2:
			t.Query = string(val)
		}
	case *LookupResp:
		switch tag {
		case 1:
			return asUint(&t.ReqID)
		case 2:
			t.Values = append(t.Values, string(val))
		}
	}
	return nil
}
