// Package monoid defines the mergeable aggregate states that power the
// windowed group-by operators. Each aggregate function is a commutative
// monoid: a Zero state, an Absorb step folding one stream value in, and
// an associative+commutative Merge combining two states. That algebraic
// contract is exactly what the in-network aggregation trees (PR 5) rely
// on: partial states may be split across interiors, reordered by
// failover replay, checkpointed and re-merged, and the final window is
// unchanged.
//
// States travel on the wire inside <partial> trees and checkpoint
// snapshots, so every state has a deterministic string encoding:
// Encode is a pure function of the abstract state (never of absorb or
// merge order), and Decode validates untrusted input — a corrupt or
// replayed partial is rejected rather than merged.
//
// Exact monoids (count, sum, min, max, avg, set) reproduce the flat
// operator bit-for-bit. Sketch monoids (distinct = HyperLogLog, freq =
// Count-Min + candidate set) trade bounded relative error for
// constant-size states regardless of stream cardinality — the property
// that lets a monitoring tree scale to millions of users (Section 6 of
// the paper; cf. the distributed entropy-monitoring estimators in
// PAPERS.md).
package monoid

import (
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// State is one aggregate accumulator. Implementations are NOT
// concurrency-safe; the owning operator serializes access.
type State interface {
	// Absorb folds one raw stream value into the state. For value-less
	// aggregates (count) the value is ignored. A value the aggregate
	// cannot use (e.g. non-numeric input to sum) returns an error and
	// leaves the state unchanged; the operator counts it as dropped.
	Absorb(val string) error
	// Merge combines another state of the same monoid into this one.
	// Merge is associative and commutative up to Encode equality.
	Merge(other State) error
	// Encode renders the state as a deterministic wire string: equal
	// abstract states encode to equal bytes regardless of the
	// absorb/merge order that produced them.
	Encode() string
	// Final emits the aggregate result as record attributes via set.
	Final(set func(attr, val string))
	// Reset returns the state to Zero, keeping its storage: an operator
	// recycles the states of the windows it has closed.
	Reset()
	// Load replaces the state with the decoding of enc, a wire encoding
	// produced by Encode, rejecting malformed or out-of-domain input
	// (negative counts, bad lengths). It is all or nothing: on error the
	// state is left at Zero.
	Load(enc string) error
}

// Monoid names an aggregate function and constructs/decodes its states.
type Monoid interface {
	Name() string
	// Zero returns a fresh identity state.
	Zero() State
	// Decode is Zero followed by Load: a fresh state holding enc.
	Decode(enc string) (State, error)
	// Exact reports whether the aggregate is exact (true) or a bounded
	// -error sketch (false).
	Exact() bool
	// NeedsValue reports whether the aggregate consumes a value
	// attribute (everything except count).
	NeedsValue() bool
}

// registry holds the built-in aggregate functions. It is populated at
// init time and read-only afterwards, so lookups need no lock.
var registry = map[string]Monoid{}

func register(m Monoid) { registry[m.Name()] = m }

// Lookup resolves an aggregate function by name. The empty name is the
// historical default, count.
func Lookup(name string) (Monoid, bool) {
	if name == "" {
		name = "count"
	}
	m, ok := registry[name]
	return m, ok
}

// Names lists the registered aggregate functions, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	register(countMonoid{})
	register(sumMonoid{})
	register(extremumMonoid{name: "min"})
	register(extremumMonoid{name: "max"})
	register(avgMonoid{})
	register(setMonoid{})
	register(hllMonoid{})
	register(freqMonoid{})
}

// decode is every monoid's Decode, so each keeps one parser: its
// state's Load.
func decode(m Monoid, enc string) (State, error) {
	s := m.Zero()
	if err := s.Load(enc); err != nil {
		return nil, err
	}
	return s, nil
}

func mismatch(want string, got State) error {
	return fmt.Errorf("monoid: cannot merge %T into %s state", got, want)
}

// ---------------------------------------------------------------------
// count — the PR 5 aggregate. Its encoding is the bare decimal that
// PartialAgg/MergeAgg already shipped as the n attribute, so count
// partials and checkpoints remain byte-identical to the map[string]int
// era.

type countMonoid struct{}

func (countMonoid) Name() string                       { return "count" }
func (countMonoid) Exact() bool                        { return true }
func (countMonoid) NeedsValue() bool                   { return false }
func (countMonoid) Zero() State                        { return &countState{} }
func (m countMonoid) Decode(enc string) (State, error) { return decode(m, enc) }

type countState struct{ n int64 }

func (s *countState) Reset() { s.n = 0 }
func (s *countState) Load(enc string) error {
	s.n = 0
	n, err := strconv.ParseInt(enc, 10, 64)
	if err != nil {
		return fmt.Errorf("count: bad state %q: %w", enc, err)
	}
	if n < 0 {
		return fmt.Errorf("count: negative state %q", enc)
	}
	s.n = n
	return nil
}

func (s *countState) Absorb(string) error {
	if s.n == math.MaxInt64 {
		return fmt.Errorf("count: overflows")
	}
	s.n++
	return nil
}
func (s *countState) Merge(other State) error {
	o, ok := other.(*countState)
	if !ok {
		return mismatch("count", other)
	}
	if o.n > math.MaxInt64-s.n {
		return fmt.Errorf("count: merging %d into %d overflows", o.n, s.n)
	}
	s.n += o.n
	return nil
}
func (s *countState) Encode() string { return strconv.FormatInt(s.n, 10) }
func (s *countState) Final(set func(attr, val string)) {
	set("count", strconv.FormatInt(s.n, 10))
}

// ---------------------------------------------------------------------
// sum / min / max / avg — exact numeric aggregates over int64 values.
// Integer arithmetic keeps Merge exactly associative (float addition is
// not), which the byte-identity gate across churn schedules depends on.

// addSum adds (dsum, dn) to (sum, n), counts being non-negative. A sum
// or count that would wrap past int64 is refused and nothing changes: a
// wrapped count encodes negative, which Decode rejects one hop later,
// and a wrapped sum is a wrong answer.
func addSum(sum, n *int64, dsum, dn int64, fn string) error {
	if s := *sum + dsum; (s > *sum) != (dsum > 0) || dn > math.MaxInt64-*n {
		return fmt.Errorf("%s: sum or count overflows", fn)
	}
	*sum += dsum
	*n += dn
	return nil
}

// parseSum reads the "S/n" encoding sum and avg share; "" is the empty
// state. Encode writes a state with no contributions as "", never as
// "S/0", so "S/0" is corrupt: it would re-encode as "" and lose S.
func parseSum(fn, enc string) (sum, n int64, err error) {
	if enc == "" {
		return 0, 0, nil
	}
	ss, ns, ok := strings.Cut(enc, "/")
	if !ok {
		return 0, 0, fmt.Errorf("%s: bad state %q", fn, enc)
	}
	if sum, err = strconv.ParseInt(ss, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("%s: bad state %q: %w", fn, enc, err)
	}
	if n, err = strconv.ParseInt(ns, 10, 64); err != nil || n < 1 {
		return 0, 0, fmt.Errorf("%s: bad state %q", fn, enc)
	}
	return sum, n, nil
}

func parseValue(val string) (int64, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("monoid: non-integer value %q", val)
	}
	return v, nil
}

type sumMonoid struct{}

func (sumMonoid) Name() string                       { return "sum" }
func (sumMonoid) Exact() bool                        { return true }
func (sumMonoid) NeedsValue() bool                   { return true }
func (sumMonoid) Zero() State                        { return &sumState{} }
func (m sumMonoid) Decode(enc string) (State, error) { return decode(m, enc) }

// sumState carries the contribution count alongside the running sum so
// the empty state ("" on the wire) is distinguishable from a sum of 0.
type sumState struct {
	sum int64
	n   int64
}

func (s *sumState) Reset() { *s = sumState{} }
func (s *sumState) Load(enc string) (err error) {
	s.sum, s.n, err = parseSum("sum", enc)
	return err
}
func (s *sumState) Absorb(val string) error {
	v, err := parseValue(val)
	if err != nil {
		return err
	}
	return addSum(&s.sum, &s.n, v, 1, "sum")
}
func (s *sumState) Merge(other State) error {
	o, ok := other.(*sumState)
	if !ok {
		return mismatch("sum", other)
	}
	return addSum(&s.sum, &s.n, o.sum, o.n, "sum")
}
func (s *sumState) Encode() string {
	if s.n == 0 {
		return ""
	}
	return strconv.FormatInt(s.sum, 10) + "/" + strconv.FormatInt(s.n, 10)
}
func (s *sumState) Final(set func(attr, val string)) {
	set("sum", strconv.FormatInt(s.sum, 10))
}

type extremumMonoid struct{ name string }

func (m extremumMonoid) Name() string                     { return m.name }
func (extremumMonoid) Exact() bool                        { return true }
func (extremumMonoid) NeedsValue() bool                   { return true }
func (m extremumMonoid) Zero() State                      { return &extremumState{attr: m.name, max: m.name == "max"} }
func (m extremumMonoid) Decode(enc string) (State, error) { return decode(m, enc) }

type extremumState struct {
	attr string
	max  bool
	set  bool
	v    int64
}

func (s *extremumState) Reset() { s.set, s.v = false, 0 }
func (s *extremumState) Load(enc string) error {
	s.Reset()
	if enc == "" {
		return nil
	}
	v, err := strconv.ParseInt(enc, 10, 64)
	if err != nil {
		return fmt.Errorf("%s: bad state %q: %w", s.attr, enc, err)
	}
	s.set, s.v = true, v
	return nil
}

func (s *extremumState) take(v int64) {
	if !s.set || (s.max && v > s.v) || (!s.max && v < s.v) {
		s.set, s.v = true, v
	}
}
func (s *extremumState) Absorb(val string) error {
	v, err := parseValue(val)
	if err != nil {
		return err
	}
	s.take(v)
	return nil
}
func (s *extremumState) Merge(other State) error {
	o, ok := other.(*extremumState)
	if !ok || o.max != s.max {
		return mismatch(s.attr, other)
	}
	if o.set {
		s.take(o.v)
	}
	return nil
}
func (s *extremumState) Encode() string {
	if !s.set {
		return ""
	}
	return strconv.FormatInt(s.v, 10)
}
func (s *extremumState) Final(set func(attr, val string)) {
	if s.set {
		set(s.attr, strconv.FormatInt(s.v, 10))
	} else {
		set(s.attr, "")
	}
}

type avgMonoid struct{}

func (avgMonoid) Name() string                       { return "avg" }
func (avgMonoid) Exact() bool                        { return true }
func (avgMonoid) NeedsValue() bool                   { return true }
func (avgMonoid) Zero() State                        { return &avgState{} }
func (m avgMonoid) Decode(enc string) (State, error) { return decode(m, enc) }

// avgState is {sum, n}; the division happens only at Final, rendered
// with a fixed format so equal states always print identical bytes.
type avgState struct {
	sum int64
	n   int64
}

func (s *avgState) Reset() { *s = avgState{} }
func (s *avgState) Load(enc string) (err error) {
	s.sum, s.n, err = parseSum("avg", enc)
	return err
}
func (s *avgState) Absorb(val string) error {
	v, err := parseValue(val)
	if err != nil {
		return err
	}
	return addSum(&s.sum, &s.n, v, 1, "avg")
}
func (s *avgState) Merge(other State) error {
	o, ok := other.(*avgState)
	if !ok {
		return mismatch("avg", other)
	}
	return addSum(&s.sum, &s.n, o.sum, o.n, "avg")
}
func (s *avgState) Encode() string {
	if s.n == 0 {
		return ""
	}
	return strconv.FormatInt(s.sum, 10) + "/" + strconv.FormatInt(s.n, 10)
}
func (s *avgState) Final(set func(attr, val string)) {
	if s.n == 0 {
		set("avg", "")
		return
	}
	set("avg", strconv.FormatFloat(float64(s.sum)/float64(s.n), 'g', -1, 64))
	set("n", strconv.FormatInt(s.n, 10))
}

// ---------------------------------------------------------------------
// set — exact distinct count. The state is the full value set, so its
// size grows with stream cardinality; it exists as the exact baseline
// the HyperLogLog sketch is judged against (X4's accuracy-vs-bytes
// axis) and for small-domain queries where exactness is cheap.

type setMonoid struct{}

func (setMonoid) Name() string                       { return "set" }
func (setMonoid) Exact() bool                        { return true }
func (setMonoid) NeedsValue() bool                   { return true }
func (setMonoid) Zero() State                        { return &setState{vals: map[string]struct{}{}} }
func (m setMonoid) Decode(enc string) (State, error) { return decode(m, enc) }

type setState struct{ vals map[string]struct{} }

func (s *setState) Reset() { clear(s.vals) }
func (s *setState) Load(enc string) error {
	s.Reset()
	if enc == "" {
		return nil
	}
	for _, part := range strings.Split(enc, ",") {
		v, err := url.QueryUnescape(part)
		if err != nil || v == "" {
			s.Reset()
			return fmt.Errorf("set: bad state element %q", part)
		}
		s.vals[v] = struct{}{}
	}
	return nil
}

func (s *setState) Absorb(val string) error {
	if val == "" {
		return fmt.Errorf("set: empty value")
	}
	s.vals[val] = struct{}{}
	return nil
}
func (s *setState) Merge(other State) error {
	o, ok := other.(*setState)
	if !ok {
		return mismatch("set", other)
	}
	for v := range o.vals {
		s.vals[v] = struct{}{}
	}
	return nil
}
func (s *setState) Encode() string {
	if len(s.vals) == 0 {
		return ""
	}
	parts := make([]string, 0, len(s.vals))
	for v := range s.vals {
		parts = append(parts, url.QueryEscape(v))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
func (s *setState) Final(set func(attr, val string)) {
	set("distinct", strconv.Itoa(len(s.vals)))
}
