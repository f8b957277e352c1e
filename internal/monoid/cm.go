package monoid

import (
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// freq — heavy hitters via a Count-Min sketch plus a bounded candidate
// set (Cormode & Muthukrishnan 2005). The sketch gives an
// overestimate-only frequency oracle in O(depth × width) space; the
// candidate set remembers up to cmCandidates concrete values so the
// final record can name the heavy hitters, pruned by sketch estimate
// whenever it overflows. Sketch counters merge by elementwise addition
// (exactly associative/commutative); candidate pruning is the one
// deliberate approximation — with at most cmCandidates distinct values
// the monoid is exact and merge-order independent, beyond that the
// reported tail may depend on merge order while the per-value estimates
// keep the Count-Min ε-δ guarantee.

const (
	cmDepth      = 4
	cmWidth      = 512
	cmCandidates = 32
	cmTopK       = 8
)

type freqMonoid struct{}

func (freqMonoid) Name() string     { return "freq" }
func (freqMonoid) Exact() bool      { return false }
func (freqMonoid) NeedsValue() bool { return true }
func (freqMonoid) Zero() State      { return newFreqState() }

func (m freqMonoid) Decode(enc string) (State, error) { return decode(m, enc) }

func (s *freqState) Reset() {
	s.cells = [cmDepth][cmWidth]int64{}
	clear(s.cands)
}

func (s *freqState) Load(enc string) error {
	s.Reset()
	if err := s.load(enc); err != nil {
		s.Reset()
		return err
	}
	return nil
}

func (s *freqState) load(enc string) error {
	if enc == "" {
		return nil
	}
	sketch, cands, ok := strings.Cut(enc, "|")
	if !ok {
		return fmt.Errorf("freq: bad state %q", enc)
	}
	// Both lists are walked like strings.Split walks them: an empty
	// element, trailing separator included, is a bad element.
	for more := sketch != ""; more; {
		var part string
		part, sketch, more = strings.Cut(sketch, ";")
		pos, count, ok := strings.Cut(part, ":")
		rs, cs, ok2 := strings.Cut(pos, ".")
		r, err1 := strconv.Atoi(rs)
		c, err2 := strconv.Atoi(cs)
		v, err3 := strconv.ParseInt(count, 10, 64)
		if !ok || !ok2 || err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("freq: bad sketch cell %q", part)
		}
		// Encode writes each cell once, so a repeat is corrupt input.
		if r < 0 || r >= cmDepth || c < 0 || c >= cmWidth || v < 1 || s.cells[r][c] != 0 {
			return fmt.Errorf("freq: out-of-range or repeated sketch cell %q", part)
		}
		s.cells[r][c] = v
	}
	for more := cands != ""; more; {
		var part string
		part, cands, more = strings.Cut(cands, ",")
		v, err := url.QueryUnescape(part)
		if err != nil || v == "" {
			return fmt.Errorf("freq: bad candidate %q", part)
		}
		s.cands[v] = cmHash(v)
	}
	if len(s.cands) > cmCandidates {
		return fmt.Errorf("freq: %d candidates exceeds cap %d", len(s.cands), cmCandidates)
	}
	return nil
}

// freqState caches each candidate's bucket per row, so a value is
// hashed once when it enters the candidate set, not at every estimate.
type freqState struct {
	cells [cmDepth][cmWidth]int64
	cands map[string][cmDepth]uint16
}

func newFreqState() *freqState {
	return &freqState{cands: map[string][cmDepth]uint16{}}
}

// cmHash derives the per-row bucket indexes from two independent FNV
// hashes (Kirsch–Mitzenmacher double hashing): the second is the first
// extended by one more byte, 0x9e.
func cmHash(val string) (rows [cmDepth]uint16) {
	sum := fnv64a(val)
	h1 := mix64(sum)
	h2 := mix64((sum^0x9e)*fnvPrime64) | 1
	for i := 0; i < cmDepth; i++ {
		rows[i] = uint16((h1 + uint64(i)*h2) % cmWidth)
	}
	return rows
}

func (s *freqState) estimate(rows [cmDepth]uint16) int64 {
	est := s.cells[0][rows[0]]
	for i := 1; i < cmDepth; i++ {
		if v := s.cells[i][rows[i]]; v < est {
			est = v
		}
	}
	return est
}

// freqEntry is a candidate with its sketch estimate.
type freqEntry struct {
	val string
	est int64
}

// ranked lists the candidates by estimate, highest first, ties by
// value, so the order is deterministic for a given merged sketch.
func (s *freqState) ranked() []freqEntry {
	all := make([]freqEntry, 0, len(s.cands))
	for v, rows := range s.cands {
		all = append(all, freqEntry{v, s.estimate(rows)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].est != all[j].est {
			return all[i].est > all[j].est
		}
		return all[i].val < all[j].val
	})
	return all
}

// prune drops the weakest candidates until the cap holds, keeping the
// highest sketch estimates.
func (s *freqState) prune() {
	if len(s.cands) <= cmCandidates {
		return
	}
	for _, e := range s.ranked()[cmCandidates:] {
		delete(s.cands, e.val)
	}
}

func (s *freqState) Absorb(val string) error {
	if val == "" {
		return fmt.Errorf("freq: empty value")
	}
	rows, known := s.cands[val]
	if !known {
		rows = cmHash(val)
	}
	for i, c := range rows {
		if s.cells[i][c] == math.MaxInt64 {
			return fmt.Errorf("freq: cell %d.%d overflows", i, c)
		}
	}
	for i, c := range rows {
		s.cells[i][c]++
	}
	if known {
		return nil
	}
	if len(s.cands) < cmCandidates {
		s.cands[val] = rows
		return nil
	}
	// At the cap: of the cmCandidates+1 values, drop the one prune's
	// ranking puts last — the lowest estimate, among equal estimates
	// the greatest value.
	weakest, weakEst := val, s.estimate(rows)
	for v, r := range s.cands {
		if e := s.estimate(r); e < weakEst || (e == weakEst && v > weakest) {
			weakest, weakEst = v, e
		}
	}
	if weakest != val {
		delete(s.cands, weakest)
		s.cands[val] = rows
	}
	return nil
}

func (s *freqState) Merge(other State) error {
	o, ok := other.(*freqState)
	if !ok {
		return mismatch("freq", other)
	}
	for i := range s.cells {
		for j, v := range o.cells[i] {
			if v > math.MaxInt64-s.cells[i][j] {
				return fmt.Errorf("freq: merging cell %d.%d overflows", i, j)
			}
		}
	}
	for i := range s.cells {
		for j := range s.cells[i] {
			s.cells[i][j] += o.cells[i][j]
		}
	}
	for v, rows := range o.cands {
		s.cands[v] = rows
	}
	s.prune()
	return nil
}

func (s *freqState) Encode() string {
	// Sized first, to within two bytes, so the string is built in one
	// allocation however many cells are set.
	var buf [cmCandidates]string
	parts, size := buf[:0], 0
	for v := range s.cands {
		p := url.QueryEscape(v)
		parts, size = append(parts, p), size+1+len(p) // ",p"
	}
	for i := range s.cells {
		for j, v := range s.cells[i] {
			if v != 0 {
				size += 4 + decLen(int64(j)) + decLen(v) // ";i.j:v"
			}
		}
	}
	if size == 0 {
		return ""
	}
	sort.Strings(parts)
	var b strings.Builder
	b.Grow(size + 1) // '|'
	var num [20]byte
	sep := ""
	for i := range s.cells {
		for j, v := range s.cells[i] {
			if v == 0 {
				continue
			}
			b.WriteString(sep)
			sep = ";"
			b.WriteByte('0' + byte(i))
			b.WriteByte('.')
			b.Write(strconv.AppendInt(num[:0], int64(j), 10))
			b.WriteByte(':')
			b.Write(strconv.AppendInt(num[:0], v, 10))
		}
	}
	b.WriteByte('|')
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p)
	}
	return b.String()
}

// decLen is the number of decimal digits of v ≥ 0.
func decLen(v int64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

func (s *freqState) Final(set func(attr, val string)) {
	top := s.ranked()
	if len(top) > cmTopK {
		top = top[:cmTopK]
	}
	parts := make([]string, len(top))
	for i, e := range top {
		parts[i] = url.QueryEscape(e.val) + ":" + strconv.FormatInt(e.est, 10)
	}
	set("top", strings.Join(parts, " "))
}
