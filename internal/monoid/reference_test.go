package monoid

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// The freq and distinct sketches as they were before their hot path was
// rewritten (cached candidate buckets, single-eviction Absorb, inline
// FNV-1a, one-buffer codecs), kept verbatim but for the names. They are
// the reference FuzzSketchMatchesReference and TestSketchMatchesReference
// hold the rewrite to: the same encoding after every step, the same
// accept/reject on every input.

func refFreqDecode(enc string) (State, error) {
	s := newRefFreqState()
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

type refFreqState struct {
	cells [cmDepth][cmWidth]int64
	cands map[string]struct{}
}

func newRefFreqState() *refFreqState {
	return &refFreqState{cands: map[string]struct{}{}}
}

// Reset and Load complete State the simplest way: a fresh state, and a
// copy of refFreqDecode's.
func (s *refFreqState) Reset() { *s = *newRefFreqState() }
func (s *refFreqState) Load(enc string) error {
	d, err := refFreqDecode(enc)
	if err != nil {
		s.Reset()
		return err
	}
	*s = *d.(*refFreqState)
	return nil
}

// refCMHash derives the per-row bucket indexes from two independent FNV
// hashes (Kirsch–Mitzenmacher double hashing).
func refCMHash(val string) (rows [cmDepth]int) {
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

func (s *refFreqState) estimate(val string) int64 {
	rows := refCMHash(val)
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
func (s *refFreqState) prune() {
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

func (s *refFreqState) Absorb(val string) error {
	if val == "" {
		return fmt.Errorf("freq: empty value")
	}
	rows := refCMHash(val)
	for i := 0; i < cmDepth; i++ {
		s.cells[i][rows[i]]++
	}
	s.cands[val] = struct{}{}
	s.prune()
	return nil
}

func (s *refFreqState) Merge(other State) error {
	o, ok := other.(*refFreqState)
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

func (s *refFreqState) Encode() string {
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
func (s *refFreqState) Top(k int) []struct {
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

func (s *refFreqState) Final(set func(attr, val string)) {
	top := s.Top(cmTopK)
	parts := make([]string, len(top))
	for i, e := range top {
		parts[i] = url.QueryEscape(e.Val) + ":" + strconv.FormatInt(e.Est, 10)
	}
	set("top", strings.Join(parts, " "))
}

func refHLLDecode(enc string) (State, error) {
	s := &refHLLState{}
	if enc == "" {
		return s, nil
	}
	switch enc[0] {
	case 's':
		body := enc[1:]
		if body == "" {
			return s, nil
		}
		for _, part := range strings.Split(body, ",") {
			iv := strings.SplitN(part, ":", 2)
			if len(iv) != 2 {
				return nil, fmt.Errorf("distinct: bad sparse cell %q", part)
			}
			i, err := strconv.Atoi(iv[0])
			if err != nil || i < 0 || i >= hllM {
				return nil, fmt.Errorf("distinct: bad register index %q", part)
			}
			v, err := strconv.Atoi(iv[1])
			if err != nil || v < 1 || v > 64-hllP+1 {
				return nil, fmt.Errorf("distinct: bad register value %q", part)
			}
			if byte(v) > s.reg[i] {
				s.reg[i] = byte(v)
			}
		}
		return s, nil
	case 'd':
		body := enc[1:]
		if len(body) != 2*hllM {
			return nil, fmt.Errorf("distinct: dense state has %d hex chars, want %d", len(body), 2*hllM)
		}
		for i := 0; i < hllM; i++ {
			v, err := strconv.ParseUint(body[2*i:2*i+2], 16, 8)
			if err != nil || v > 64-hllP+1 {
				return nil, fmt.Errorf("distinct: bad dense register %d", i)
			}
			s.reg[i] = byte(v)
		}
		return s, nil
	}
	return nil, fmt.Errorf("distinct: bad state prefix %q", enc[:1])
}

type refHLLState struct {
	reg [hllM]byte
}

func (s *refHLLState) Reset() { *s = refHLLState{} }
func (s *refHLLState) Load(enc string) error {
	d, err := refHLLDecode(enc)
	if err != nil {
		s.Reset()
		return err
	}
	*s = *d.(*refHLLState)
	return nil
}

func refHLLHash(val string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(val))
	return mix64(h.Sum64())
}

func (s *refHLLState) Absorb(val string) error {
	if val == "" {
		return fmt.Errorf("distinct: empty value")
	}
	h := refHLLHash(val)
	i := h >> (64 - hllP)
	w := h << hllP
	var rank byte
	if w == 0 {
		rank = 64 - hllP + 1
	} else {
		rank = byte(bits.LeadingZeros64(w)) + 1
	}
	if rank > s.reg[i] {
		s.reg[i] = rank
	}
	return nil
}

func (s *refHLLState) Merge(other State) error {
	o, ok := other.(*refHLLState)
	if !ok {
		return mismatch("distinct", other)
	}
	for i := range s.reg {
		if o.reg[i] > s.reg[i] {
			s.reg[i] = o.reg[i]
		}
	}
	return nil
}

// Estimate returns the cardinality estimate, rounded to an integer.
func (s *refHLLState) Estimate() int64 {
	var sum float64
	zeros := 0
	for _, r := range s.reg {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/float64(hllM))
	e := alpha * hllM * hllM / sum
	// Small-range correction: linear counting is far more accurate
	// while empty registers remain. With a 64-bit hash no large-range
	// correction is needed at monitoring scales.
	if e <= 2.5*hllM && zeros > 0 {
		e = hllM * math.Log(float64(hllM)/float64(zeros))
	}
	return int64(math.Round(e))
}

func (s *refHLLState) Encode() string {
	nonzero := 0
	for _, r := range s.reg {
		if r != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		return ""
	}
	var b strings.Builder
	if nonzero <= hllSparseMax {
		b.WriteByte('s')
		first := true
		for i, r := range s.reg {
			if r == 0 {
				continue
			}
			if !first {
				b.WriteByte(',')
			}
			first = false
			b.WriteString(strconv.Itoa(i))
			b.WriteByte(':')
			b.WriteString(strconv.Itoa(int(r)))
		}
		return b.String()
	}
	b.WriteByte('d')
	const hex = "0123456789abcdef"
	for _, r := range s.reg {
		b.WriteByte(hex[r>>4])
		b.WriteByte(hex[r&0xf])
	}
	return b.String()
}

func (s *refHLLState) Final(set func(attr, val string)) {
	set("distinct", strconv.FormatInt(s.Estimate(), 10))
}
