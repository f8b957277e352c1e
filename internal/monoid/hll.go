package monoid

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// distinct — HyperLogLog distinct-count sketch (Flajolet et al. 2007,
// with the small-range linear-counting correction from Heule et al.'s
// HLL++ analysis). Precision p=12 gives m=4096 one-byte registers: the
// state is at most ~8 KB encoded no matter how many distinct values the
// stream carries, and the asymptotic standard error is 1.04/sqrt(m) ≈
// 1.6% — inside the soak gate's 2% tolerance. Merge is elementwise
// register max, which is associative, commutative and idempotent, so
// the sketch is a true monoid and survives replay/re-merge unchanged.

const (
	hllP = 12
	hllM = 1 << hllP
	// hllSparseMax is the largest number of non-zero registers encoded
	// in the sparse "i:v,..." form; beyond it the dense hex form (fixed
	// 2*m+1 bytes) is smaller per register and bounds the state size.
	hllSparseMax = hllM / 8
)

type hllMonoid struct{}

func (hllMonoid) Name() string     { return "distinct" }
func (hllMonoid) Exact() bool      { return false }
func (hllMonoid) NeedsValue() bool { return true }
func (hllMonoid) Zero() State      { return &hllState{} }

func (m hllMonoid) Decode(enc string) (State, error) { return decode(m, enc) }

func (s *hllState) Reset() { s.reg = [hllM]byte{} }

func (s *hllState) Load(enc string) error {
	s.Reset()
	if err := s.load(enc); err != nil {
		s.Reset()
		return err
	}
	return nil
}

func (s *hllState) load(enc string) error {
	if enc == "" {
		return nil
	}
	switch enc[0] {
	case 's':
		// Walked like strings.Split walks it: an empty element, trailing
		// ',' included, is a bad cell.
		for body, more := enc[1:], len(enc) > 1; more; {
			var part string
			part, body, more = strings.Cut(body, ",")
			is, vs, ok := strings.Cut(part, ":")
			if !ok {
				return fmt.Errorf("distinct: bad sparse cell %q", part)
			}
			i, err := strconv.Atoi(is)
			if err != nil || i < 0 || i >= hllM {
				return fmt.Errorf("distinct: bad register index %q", part)
			}
			v, err := strconv.Atoi(vs)
			if err != nil || v < 1 || v > 64-hllP+1 {
				return fmt.Errorf("distinct: bad register value %q", part)
			}
			if byte(v) > s.reg[i] {
				s.reg[i] = byte(v)
			}
		}
		return nil
	case 'd':
		body := enc[1:]
		if len(body) != 2*hllM {
			return fmt.Errorf("distinct: dense state has %d hex chars, want %d", len(body), 2*hllM)
		}
		for i := 0; i < hllM; i++ {
			v, err := strconv.ParseUint(body[2*i:2*i+2], 16, 8)
			if err != nil || v > 64-hllP+1 {
				return fmt.Errorf("distinct: bad dense register %d", i)
			}
			s.reg[i] = byte(v)
		}
		return nil
	}
	return fmt.Errorf("distinct: bad state prefix %q", enc[:1])
}

type hllState struct {
	reg [hllM]byte
}

// mix64 is a 64-bit finalizer (the murmur3 fmix64 constants): FNV's
// high-order bits avalanche poorly on short, similar keys, and the
// register index comes from exactly those bits — without this mix a
// handful of registers absorbs the whole value universe and the
// estimate collapses.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// FNV-1a, 64-bit: the bits of hash/fnv's New64a, with no hasher to
// allocate and no []byte copy of the value.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64a(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func hllHash(val string) uint64 {
	return mix64(fnv64a(val))
}

func (s *hllState) Absorb(val string) error {
	if val == "" {
		return fmt.Errorf("distinct: empty value")
	}
	h := hllHash(val)
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

func (s *hllState) Merge(other State) error {
	o, ok := other.(*hllState)
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
func (s *hllState) Estimate() int64 {
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

func (s *hllState) Encode() string {
	nonzero, sparseLen := 0, 1 // 's'
	for i, r := range s.reg {
		if r != 0 {
			nonzero++
			sparseLen += decLen(int64(i)) + decLen(int64(r)) + 2 // "i:v,"
		}
	}
	if nonzero == 0 {
		return ""
	}
	var b strings.Builder
	if nonzero <= hllSparseMax {
		b.Grow(sparseLen)
		b.WriteByte('s')
		var num [20]byte
		first := true
		for i, r := range s.reg {
			if r == 0 {
				continue
			}
			if !first {
				b.WriteByte(',')
			}
			first = false
			b.Write(strconv.AppendInt(num[:0], int64(i), 10))
			b.WriteByte(':')
			b.Write(strconv.AppendInt(num[:0], int64(r), 10))
		}
		return b.String()
	}
	b.Grow(1 + 2*hllM)
	b.WriteByte('d')
	const hex = "0123456789abcdef"
	for _, r := range s.reg {
		b.WriteByte(hex[r>>4])
		b.WriteByte(hex[r&0xf])
	}
	return b.String()
}

func (s *hllState) Final(set func(attr, val string)) {
	set("distinct", strconv.FormatInt(s.Estimate(), 10))
}
