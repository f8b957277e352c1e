// Package kadop implements the Stream Definition Database of Section 5: a
// distributed index of stream descriptors built over a DHT (standing in
// for the KadoP system [3]). Every deployed stream is described in XML —
//
//	<Stream PeerId="..." StreamId="..." isAChannel="...">
//	  <Operator>...</Operator><Operands>...</Operands><Stats>...</Stats>
//	</Stream>
//
// — published under index keys that answer exactly the discovery queries
// the Reuse algorithm issues: alerters at a peer, operators over a given
// operand stream, exact sub-plan signatures, and channel replicas.
package kadop

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"p2pm/internal/dht"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
	"p2pm/internal/xpath"
)

// StreamDef describes one published stream.
type StreamDef struct {
	Ref       stream.Ref
	IsChannel bool
	// Operator is the producing operator's name: an alerter function
	// (inCOM, outCOM, ...) when Operands is empty, else Filter, Join,
	// Union, Restructure, Distinct, Group.
	Operator string
	// Signature is the placement-independent canonical description of
	// the computation (algebra.Node.Signature); equal signatures mean
	// equivalent streams.
	Signature string
	// Operands reference the input streams — always the *original*
	// streams, never replicas (Section 5: "When we publish the
	// specification of a stream, we always do it with respect to the
	// original streams").
	Operands []stream.Ref
	// Conds, for Filter streams, lists the σ's conditions in canonical
	// form (variable-name normalized, LETs inlined). They enable
	// subsumption-based reuse: a stream filtering a *subset* of a new
	// task's conditions "holds sufficient data" for it (the paper's
	// future-work item), needing only a residual filter on top.
	Conds []string
	// Group, for partial-aggregation streams (PartialAgg leaves and
	// non-final MergeAgg interiors), names the aggregate's identity
	// (fn/value/key/window). Such streams are additionally indexed under
	// the aggregate so containment queries find every partial stream of
	// the same logical aggregate in one lookup.
	Group string
	// Sources lists the canonical signatures of the source streams whose
	// data the partial stream aggregates — the containment side of
	// aggregate sharing: a stream whose source set is contained in a new
	// subscription's union can be grafted in as a pre-merged input.
	Sources []string
	// Stats carries statistical attributes (average item volume etc.).
	Stats map[string]string
}

// ToXML renders the descriptor in the paper's schema, as one tree carved
// from a Builder sized for it.
func (d *StreamDef) ToXML() *xmltree.Node {
	kids := 3 // Operator, Operands, Stats
	if len(d.Sources) > 0 {
		kids++
	}
	b := xmltree.NewBuilder(
		1+kids+1+2*len(d.Conds)+2*len(d.Sources)+len(d.Operands),
		5+2*len(d.Operands)+len(d.Stats))
	n := b.Elem("Stream", 5, kids)
	n.SetAttr("PeerId", d.Ref.PeerID)
	n.SetAttr("StreamId", d.Ref.StreamID)
	n.SetAttr("isAChannel", strconv.FormatBool(d.IsChannel))
	if d.Signature != "" {
		n.SetAttr("signature", d.Signature)
	}
	if d.Group != "" {
		n.SetAttr("group", d.Group)
	}
	opInner := b.Elem(d.Operator, 0, len(d.Conds))
	for _, c := range d.Conds {
		opInner.Append(textElem(&b, "Cond", c))
	}
	op := b.Elem("Operator", 0, 1)
	op.Append(opInner)
	n.Append(op)
	if len(d.Sources) > 0 {
		srcs := b.Elem("Sources", 0, len(d.Sources))
		for _, s := range d.Sources {
			srcs.Append(textElem(&b, "Src", s))
		}
		n.Append(srcs)
	}
	operands := b.Elem("Operands", 0, len(d.Operands))
	for _, o := range d.Operands {
		oe := b.Elem("Operand", 2, 0)
		oe.SetAttr("OPeerId", o.PeerID)
		oe.SetAttr("OStreamId", o.StreamID)
		operands.Append(oe)
	}
	n.Append(operands)
	stats := b.Elem("Stats", len(d.Stats), 0)
	keys := make([]string, 0, len(d.Stats))
	for k := range d.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		stats.SetAttr(k, d.Stats[k])
	}
	n.Append(stats)
	return n
}

// textElem is xmltree.ElemText carved from b.
func textElem(b *xmltree.Builder, label, text string) *xmltree.Node {
	e := b.Elem(label, 0, 1)
	e.Append(b.Text(text))
	return e
}

// ParseDef reads a descriptor back from XML.
func ParseDef(n *xmltree.Node) (*StreamDef, error) {
	if n == nil || n.Label != "Stream" {
		return nil, fmt.Errorf("kadop: not a Stream descriptor")
	}
	d := &StreamDef{
		Ref: stream.Ref{
			PeerID:   n.AttrOr("PeerId", ""),
			StreamID: n.AttrOr("StreamId", ""),
		},
		IsChannel: n.AttrOr("isAChannel", "") == "true",
		Signature: n.AttrOr("signature", ""),
		Group:     n.AttrOr("group", ""),
		Stats:     make(map[string]string),
	}
	if d.Ref.PeerID == "" || d.Ref.StreamID == "" {
		return nil, fmt.Errorf("kadop: descriptor missing stream identity")
	}
	op := n.Child("Operator")
	if op == nil || len(op.Children) == 0 || op.Children[0].IsText() {
		return nil, fmt.Errorf("kadop: descriptor missing operator")
	}
	d.Operator = op.Children[0].Label
	for _, c := range op.Children[0].ChildrenByLabel("Cond") {
		d.Conds = append(d.Conds, c.InnerText())
	}
	if ops := n.Child("Operands"); ops != nil {
		for _, o := range ops.ChildrenByLabel("Operand") {
			d.Operands = append(d.Operands, stream.Ref{
				PeerID:   o.AttrOr("OPeerId", ""),
				StreamID: o.AttrOr("OStreamId", ""),
			})
		}
	}
	if srcs := n.Child("Sources"); srcs != nil {
		for _, s := range srcs.ChildrenByLabel("Src") {
			d.Sources = append(d.Sources, s.InnerText())
		}
	}
	if st := n.Child("Stats"); st != nil {
		for _, a := range st.Attrs {
			d.Stats[a.Name] = a.Value
		}
	}
	return d, nil
}

// IsSource reports whether the stream is produced by an alerter ("When
// the set Operands is empty ... it is produced by an alerter").
func (d *StreamDef) IsSource() bool { return len(d.Operands) == 0 }

// DB is the stream definition database. The descriptors its Find
// queries return are shared between callers and must not be modified.
type DB struct {
	ring *dht.Ring

	mu   sync.Mutex
	defs uint64
	// memo maps a record's text to its decoding. Records are immutable
	// and the key is the content itself, so an entry can never be stale;
	// it holds at most one entry per descriptor published and not
	// retracted.
	// Only a successful decode fills it, so a corrupt record fails every
	// lookup that meets it.
	memo map[string]decoded
	// written holds the keys of the records UpdateStats wrote for a
	// stream (owner: its stats key) and PutCheckpoint for a task (owner:
	// its id): what DropStats and DropCheckpoints take out of the ring,
	// so that an owner that wrote none costs them no DHT operation.
	written map[string][]string
}

// decoded is one memoized descriptor with its "s@p" sort key.
type decoded struct {
	def *StreamDef
	key string
}

// New builds a database over a DHT ring.
func New(ring *dht.Ring) *DB {
	return &DB{ring: ring, memo: make(map[string]decoded), written: make(map[string][]string)}
}

// Index keys. Each descriptor is stored under several keys so every
// discovery query of Section 5 is a single DHT lookup.
func alerterKey(peer, fn string) string         { return "alerter|" + peer + "|" + fn }
func operandKey(op string, o stream.Ref) string { return "op|" + op + "|" + o.String() }
func sigKey(sig string) string                  { return "sig|" + sig }
func aggKey(group string) string                { return "agg|" + group }
func replicaKey(orig stream.Ref) string         { return "replica|" + orig.String() }
func refKey(ref stream.Ref) string              { return "def|" + ref.String() }

// Publish indexes a stream descriptor.
func (db *DB) Publish(def *StreamDef) error {
	_, err := db.publish(def)
	return err
}

// publish stores the descriptor under its index keys and returns the
// record text it stored.
func (db *DB) publish(def *StreamDef) (string, error) {
	if def.Ref.PeerID == "" || def.Ref.StreamID == "" {
		return "", fmt.Errorf("kadop: descriptor needs a stream identity")
	}
	if def.Operator == "" {
		return "", fmt.Errorf("kadop: descriptor needs an operator")
	}
	xml := def.ToXML().String()
	for _, k := range indexKeys(def) {
		if err := db.ring.Put(k, xml); err != nil {
			return "", err
		}
	}
	db.mu.Lock()
	db.defs++
	db.mu.Unlock()
	return xml, nil
}

// indexKeys lists the keys a descriptor is published under.
func indexKeys(def *StreamDef) []string {
	keys := []string{refKey(def.Ref)}
	if def.IsSource() {
		keys = append(keys, alerterKey(def.Ref.PeerID, def.Operator))
	}
	for _, o := range def.Operands {
		keys = append(keys, operandKey(def.Operator, o))
	}
	if def.Signature != "" {
		keys = append(keys, sigKey(def.Signature))
	}
	if def.Group != "" && len(def.Sources) > 0 {
		keys = append(keys, aggKey(def.Group))
	}
	return keys
}

// Retract withdraws a stream that stopped running: its descriptor from
// every key it was published under, the enumeration index included,
// every replica record announced for it and its stats records. No lookup
// finds it afterwards, and the memo forgets its decoding. from names the
// retracting peer, for hop accounting.
func (db *DB) Retract(from string, ref stream.Ref) error {
	db.DropStats(ref)
	texts, _, err := db.ring.Get(from, refKey(ref))
	if err != nil {
		return err
	}
	for _, text := range texts {
		db.mu.Lock()
		rec, err := db.decodeLocked(text)
		delete(db.memo, text)
		db.mu.Unlock()
		if err != nil {
			return err
		}
		for _, k := range append(indexKeys(rec.def), identityIndexKey) {
			db.ring.Remove(k, text)
		}
	}
	replicas, _, err := db.ring.Get(from, replicaKey(ref))
	for _, v := range replicas {
		db.ring.Remove(replicaKey(ref), v)
	}
	return err
}

// Defs returns the number of descriptors published.
func (db *DB) Defs() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.defs
}

// lookup returns the descriptors stored under key, ordered by their
// "StreamID@PeerID" string, the first record stored winning among
// several for one stream. The descriptors are shared between calls:
// callers must not modify them.
func (db *DB) lookup(from, key string) ([]*StreamDef, int, error) {
	vals, hops, err := db.ring.Get(from, key)
	if err != nil || len(vals) == 0 {
		return nil, hops, err
	}
	recs := make([]decoded, len(vals))
	db.mu.Lock()
	for i, v := range vals {
		if recs[i], err = db.decodeLocked(v); err != nil {
			break
		}
	}
	db.mu.Unlock()
	if err != nil {
		return nil, hops, err
	}
	slices.SortStableFunc(recs, func(a, b decoded) int { return strings.Compare(a.key, b.key) })
	out := make([]*StreamDef, 0, len(recs))
	for i, rec := range recs {
		if i == 0 || rec.key != recs[i-1].key {
			out = append(out, rec.def)
		}
	}
	return out, hops, nil
}

// decodeLocked returns the decoding of one record, from the memo when
// the same text was decoded before.
func (db *DB) decodeLocked(text string) (decoded, error) {
	if rec, ok := db.memo[text]; ok {
		return rec, nil
	}
	n, err := xmltree.Parse(text)
	if err != nil {
		return decoded{}, fmt.Errorf("kadop: corrupt descriptor: %w", err)
	}
	d, err := ParseDef(n)
	if err != nil {
		return decoded{}, err
	}
	rec := decoded{def: d, key: d.Ref.String()}
	db.memo[text] = rec
	return rec, nil
}

// FindAlerters answers "is there a communication alerter for p1?" —
// the first discovery query of Section 5.
func (db *DB) FindAlerters(from, peer, fn string) ([]*StreamDef, int, error) {
	return db.lookup(from, alerterKey(peer, fn))
}

// FindByOperand answers "is there a <op> over stream s1@p1?" — e.g. all
// filters of a given source stream.
func (db *DB) FindByOperand(from, op string, operand stream.Ref) ([]*StreamDef, int, error) {
	return db.lookup(from, operandKey(op, operand))
}

// FindBySignature answers exact sub-plan matches.
func (db *DB) FindBySignature(from, sig string) ([]*StreamDef, int, error) {
	return db.lookup(from, sigKey(sig))
}

// FindAggParts answers "which partial-aggregation streams exist for this
// aggregate identity?" — the containment query of aggregate-tree
// sharing. Every returned descriptor carries the Sources it pre-merges.
func (db *DB) FindAggParts(from, group string) ([]*StreamDef, int, error) {
	return db.lookup(from, aggKey(group))
}

// FindByRef resolves a stream's own descriptor from its identity.
func (db *DB) FindByRef(from string, ref stream.Ref) (*StreamDef, int, error) {
	defs, hops, err := db.lookup(from, refKey(ref))
	if err != nil {
		return nil, hops, err
	}
	if len(defs) == 0 {
		return nil, hops, nil
	}
	return defs[0], hops, nil
}

func statsKey(ref stream.Ref) string { return "stats|" + ref.String() }

// UpdateStats records the latest statistics for a stream. Latest wins:
// each write replaces the stream's previous record, so a stream holds one
// however often it is refreshed. The paper's descriptors carry
// "statistical information maintained for the stream such as the average
// volume of data".
func (db *DB) UpdateStats(ref stream.Ref, stats map[string]string) error {
	n := xmltree.Elem("Stats")
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n.SetAttr(k, stats[k])
	}
	key := statsKey(ref)
	if err := db.ring.Set(key, n.String()); err != nil {
		return err
	}
	db.wrote(key, key)
	return nil
}

// DropStats removes the stats record UpdateStats wrote for a stream;
// for one it wrote none, it does nothing.
func (db *DB) DropStats(ref stream.Ref) { db.drop(statsKey(ref)) }

// wrote records that the record under key was written for owner.
func (db *DB) wrote(owner, key string) {
	db.mu.Lock()
	if !slices.Contains(db.written[owner], key) {
		db.written[owner] = append(db.written[owner], key)
	}
	db.mu.Unlock()
}

// drop removes every record written for owner.
func (db *DB) drop(owner string) {
	db.mu.Lock()
	keys := db.written[owner]
	delete(db.written, owner)
	db.mu.Unlock()
	for _, k := range keys {
		db.ring.Delete(k)
	}
}

// StatsFor returns the most recently recorded statistics for a stream.
func (db *DB) StatsFor(from string, ref stream.Ref) (map[string]string, int, error) {
	vals, hops, err := db.ring.Get(from, statsKey(ref))
	if err != nil || len(vals) == 0 {
		return nil, hops, err
	}
	n, err := xmltree.Parse(vals[len(vals)-1])
	if err != nil {
		return nil, hops, fmt.Errorf("kadop: corrupt stats record: %w", err)
	}
	out := make(map[string]string, len(n.Attrs))
	for _, a := range n.Attrs {
		out[a.Name] = a.Value
	}
	return out, hops, nil
}

// CheckpointKey is the DHT key of one operator checkpoint record —
// exported so callers can locate the record's owner (e.g. to account
// the checkpoint shipment on the right link).
func CheckpointKey(task, op string) string { return "ckpt|" + task + "|" + op }

// PutCheckpoint stores one operator checkpoint (serialized XML) under
// the (task, operator-stream) identity. The record rides the DHT's
// normal key replication — owner plus successors — so it survives the
// crash of its own host, and Ring.Fail's re-replication keeps the copy
// count up through churn. Latest wins: each write replaces the previous
// checkpoint.
func (db *DB) PutCheckpoint(task, op, xml string) error {
	key := CheckpointKey(task, op)
	if err := db.ring.Set(key, xml); err != nil {
		return err
	}
	db.wrote(task, key)
	return nil
}

// DropCheckpoints removes every checkpoint PutCheckpoint stored for a
// task; for one that stored none, it does nothing.
func (db *DB) DropCheckpoints(task string) { db.drop(task) }

// Checkpoint returns the most recent checkpoint stored for the (task,
// operator-stream) identity, or ok=false when none survives.
func (db *DB) Checkpoint(from, task, op string) (string, bool, error) {
	vals, _, err := db.ring.Get(from, CheckpointKey(task, op))
	if err != nil || len(vals) == 0 {
		return "", false, err
	}
	return vals[len(vals)-1], true, nil
}

// CheckpointLoad returns the per-member DHT service counters for the
// checkpoint key class: how many checkpoint puts/gets each ring member
// served as a primary holder. The X3 elasticity experiment reads its
// max-vs-mean spread from here.
func (db *DB) CheckpointLoad() map[string]dht.Load {
	return db.ring.ServiceLoad("ckpt")
}

// ResetLoad zeroes the ring's service counters, so a steady-state
// measurement window can exclude deployment and growth traffic.
func (db *DB) ResetLoad() { db.ring.ResetServiceLoad() }

// PublishReplica records that replicaRef re-publishes origRef (the
// paper's InChannel record: a subscriber announcing it can also provide
// the stream).
func (db *DB) PublishReplica(orig, replica stream.Ref) error {
	n := xmltree.Elem("InChannel")
	n.SetAttr("PeerId", orig.PeerID)
	n.SetAttr("StreamId", orig.StreamID)
	n.SetAttr("ReplicaPeerId", replica.PeerID)
	n.SetAttr("ReplicaStreamId", replica.StreamID)
	return db.ring.Put(replicaKey(orig), n.String())
}

// Replicas returns all known replicas of a stream.
func (db *DB) Replicas(from string, orig stream.Ref) ([]stream.Ref, int, error) {
	vals, hops, err := db.ring.Get(from, replicaKey(orig))
	if err != nil {
		return nil, hops, err
	}
	var out []stream.Ref
	seen := make(map[string]bool)
	for _, v := range vals {
		n, err := xmltree.Parse(v)
		if err != nil || n.Label != "InChannel" {
			return nil, hops, fmt.Errorf("kadop: corrupt replica record")
		}
		r := stream.Ref{PeerID: n.AttrOr("ReplicaPeerId", ""), StreamID: n.AttrOr("ReplicaStreamId", "")}
		if !seen[r.String()] {
			seen[r.String()] = true
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out, hops, nil
}

// Document assembles every stored descriptor into one <db> document and
// QueryXPath evaluates a Section 5-style XPath query against it. This is
// the diagnostic evaluator used by tests and the explain tooling; the
// reuse algorithm itself uses the indexed lookups above.
func (db *DB) Document() *xmltree.Node {
	doc := xmltree.Elem("db")
	seen := make(map[string]bool)
	for _, v := range db.allRaw() {
		n, err := xmltree.Parse(v)
		if err != nil || n.Label != "Stream" {
			continue
		}
		id := n.AttrOr("StreamId", "") + "@" + n.AttrOr("PeerId", "")
		if !seen[id] {
			seen[id] = true
			doc.Append(n)
		}
	}
	return doc
}

// allRaw enumerates all raw descriptor values. The ring has no global
// scan primitive (that is the point of a DHT); enumeration walks the
// identity index maintained alongside the semantic keys.
func (db *DB) allRaw() []string {
	vals, _, err := db.ring.Get("", identityIndexKey)
	if err != nil {
		return nil
	}
	return vals
}

const identityIndexKey = "kadop|all"

// PublishIndexed is Publish plus enrollment in the enumeration index.
// The identity index is a convenience for diagnostics and small
// deployments; large deployments use only the semantic keys.
func (db *DB) PublishIndexed(def *StreamDef) error {
	xml, err := db.publish(def)
	if err != nil {
		return err
	}
	return db.ring.Put(identityIndexKey, xml)
}

// QueryXPath evaluates a rooted XPath query (e.g. the three queries of
// Section 5) over the assembled descriptor document.
func (db *DB) QueryXPath(q string, binds map[string]string) ([]*StreamDef, error) {
	path, err := xpath.Compile(rewriteRootedQuery(q))
	if err != nil {
		return nil, err
	}
	doc := db.Document()
	var out []*StreamDef
	for _, n := range path.SelectNodes(doc, xpath.Bindings(binds)) {
		d, err := ParseDef(n)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// rewriteRootedQuery maps the paper's "/Stream[...]" form onto our <db>
// wrapper document.
func rewriteRootedQuery(q string) string {
	if strings.HasPrefix(q, "/Stream") {
		return "/db" + q
	}
	return q
}
