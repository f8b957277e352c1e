package monoid

import (
	"fmt"
	"hash/fnv"
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

func (freqMonoid) Decode(enc string) (State, error) {
	s := newFreqState()
	if enc == "" {
		return s, nil
	}
	sketch, cands, ok := strings.Cut(enc, "|")
	if !ok {
		return nil, fmt.Errorf("freq: bad state %q", enc)
	}
	if sketch != "" {
		for _, part := range strings.Split(sketch, ";") {
			pos, count, ok := strings.Cut(part, ":")
			rs, cs, ok2 := strings.Cut(pos, ".")
			r, err1 := strconv.Atoi(rs)
			c, err2 := strconv.Atoi(cs)
			v, err3 := strconv.ParseInt(count, 10, 64)
			if !ok || !ok2 || err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("freq: bad sketch cell %q", part)
			}
			// Encode writes each cell once, so a repeat is corrupt input.
			if r < 0 || r >= cmDepth || c < 0 || c >= cmWidth || v < 1 || s.cells[r][c] != 0 {
				return nil, fmt.Errorf("freq: out-of-range or repeated sketch cell %q", part)
			}
			s.cells[r][c] = v
		}
	}
	if cands != "" {
		for _, part := range strings.Split(cands, ",") {
			v, err := url.QueryUnescape(part)
			if err != nil || v == "" {
				return nil, fmt.Errorf("freq: bad candidate %q", part)
			}
			s.cands[v] = struct{}{}
		}
		if len(s.cands) > cmCandidates {
			return nil, fmt.Errorf("freq: %d candidates exceeds cap %d", len(s.cands), cmCandidates)
		}
	}
	return s, nil
}

type freqState struct {
	cells [cmDepth][cmWidth]int64
	cands map[string]struct{}
}

func newFreqState() *freqState {
	return &freqState{cands: map[string]struct{}{}}
}

// cmHash derives the per-row bucket indexes from two independent FNV
// hashes (Kirsch–Mitzenmacher double hashing).
func cmHash(val string) (rows [cmDepth]int) {
	h := fnv.New64a()
	h.Write([]byte(val))
	h1 := mix64(h.Sum64())
	h.Write([]byte{0x9e})
	h2 := mix64(h.Sum64()) | 1
	for i := 0; i < cmDepth; i++ {
		rows[i] = int((h1 + uint64(i)*h2) % cmWidth)
	}
	return rows
}

func (s *freqState) estimate(val string) int64 {
	rows := cmHash(val)
	est := s.cells[0][rows[0]]
	for i := 1; i < cmDepth; i++ {
		if v := s.cells[i][rows[i]]; v < est {
			est = v
		}
	}
	return est
}

// prune drops the weakest candidates until the cap holds, keeping the
// highest sketch estimates (ties broken by value so the survivors are
// deterministic for a given merged sketch).
func (s *freqState) prune() {
	if len(s.cands) <= cmCandidates {
		return
	}
	type ce struct {
		v   string
		est int64
	}
	all := make([]ce, 0, len(s.cands))
	for v := range s.cands {
		all = append(all, ce{v, s.estimate(v)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].est != all[j].est {
			return all[i].est > all[j].est
		}
		return all[i].v < all[j].v
	})
	for _, e := range all[cmCandidates:] {
		delete(s.cands, e.v)
	}
}

func (s *freqState) Absorb(val string) error {
	if val == "" {
		return fmt.Errorf("freq: empty value")
	}
	rows := cmHash(val)
	for i := 0; i < cmDepth; i++ {
		s.cells[i][rows[i]]++
	}
	s.cands[val] = struct{}{}
	s.prune()
	return nil
}

func (s *freqState) Merge(other State) error {
	o, ok := other.(*freqState)
	if !ok {
		return mismatch("freq", other)
	}
	for i := range s.cells {
		for j := range s.cells[i] {
			s.cells[i][j] += o.cells[i][j]
		}
	}
	for v := range o.cands {
		s.cands[v] = struct{}{}
	}
	s.prune()
	return nil
}

func (s *freqState) Encode() string {
	var b strings.Builder
	first := true
	for i := range s.cells {
		for j, v := range s.cells[i] {
			if v == 0 {
				continue
			}
			if !first {
				b.WriteByte(';')
			}
			first = false
			fmt.Fprintf(&b, "%d.%d:%d", i, j, v)
		}
	}
	if first && len(s.cands) == 0 {
		return ""
	}
	b.WriteByte('|')
	parts := make([]string, 0, len(s.cands))
	for v := range s.cands {
		parts = append(parts, url.QueryEscape(v))
	}
	sort.Strings(parts)
	b.WriteString(strings.Join(parts, ","))
	return b.String()
}

// Top returns up to k candidates ordered by estimated frequency
// (descending, ties by value).
func (s *freqState) Top(k int) []struct {
	Val string
	Est int64
} {
	type ce struct {
		Val string
		Est int64
	}
	all := make([]ce, 0, len(s.cands))
	for v := range s.cands {
		all = append(all, ce{v, s.estimate(v)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Est != all[j].Est {
			return all[i].Est > all[j].Est
		}
		return all[i].Val < all[j].Val
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]struct {
		Val string
		Est int64
	}, len(all))
	for i, e := range all {
		out[i] = struct {
			Val string
			Est int64
		}{e.Val, e.Est}
	}
	return out
}

func (s *freqState) Final(set func(attr, val string)) {
	top := s.Top(cmTopK)
	parts := make([]string, len(top))
	for i, e := range top {
		parts[i] = url.QueryEscape(e.Val) + ":" + strconv.FormatInt(e.Est, 10)
	}
	set("top", strings.Join(parts, " "))
}
