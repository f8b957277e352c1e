package monoid

import (
	"strconv"
	"testing"
)

// FuzzMonoidDecode: partials and checkpoints arrive as untrusted text, so
// Decode must never panic, and a state it accepts must survive its own
// encoding: Encode, Decode and Encode again give the same bytes, and the
// round trip reports the same Final (a sum with no count once decoded,
// re-encoded as "" and lost its sum). Load into a used state must give
// Decode's verdict and encoding, and leave Zero when it refuses. When
// both inputs decode, their merge must survive its encoding too (a
// counter that wraps encodes negative, which Decode rejects), and a
// merge that is refused must leave the receiver as it was.
func FuzzMonoidDecode(f *testing.F) {
	names := Names()
	for i, name := range names {
		m, _ := Lookup(name)
		f.Add(uint8(i), m.Zero().Encode(), "")
		s := m.Zero()
		if err := s.Absorb("7"); err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(uint8(i), s.Encode(), s.Encode())
		switch name {
		case "freq":
			// Two halves of one cell that sum past int64.
			f.Add(uint8(i), "0.0:9223372036854775807;0.0:1|", "")
			f.Add(uint8(i), "0.0:9223372036854775807|", "0.0:1|")
		case "count":
			f.Add(uint8(i), "9223372036854775807", "1")
		case "sum", "avg":
			f.Add(uint8(i), "9223372036854775807/1", "1/1")
			f.Add(uint8(i), "-9223372036854775808/1", "-1/1")
			f.Add(uint8(i), "0/9223372036854775807", "0/1")
		}
	}
	f.Fuzz(func(t *testing.T, pick uint8, enc, other string) {
		m, _ := Lookup(names[int(pick)%len(names)])
		s, err := m.Decode(enc)
		if err != nil {
			return
		}
		first := roundTrip(t, m, enc, s)
		used, _ := m.Decode(enc)
		loadErr := used.Load(other)
		o, err := m.Decode(other)
		if (loadErr == nil) != (err == nil) {
			t.Fatalf("%s: Load(%q) into %q gives %v, Decode %v", m.Name(), other, enc, loadErr, err)
		}
		want := m.Zero().Encode()
		if err == nil {
			want = o.Encode()
		}
		if got := used.Encode(); got != want {
			t.Fatalf("%s: Load(%q) into %q leaves %q, want %q", m.Name(), other, enc, got, want)
		}
		if err != nil {
			return
		}
		if err := s.Merge(o); err != nil {
			if got := s.Encode(); got != first {
				t.Fatalf("%s: refused merge of %q into %q changed it to %q: %v", m.Name(), other, enc, got, err)
			}
			return
		}
		roundTrip(t, m, enc+" ⊕ "+other, s)
	})
}

// roundTrip checks that s, decoded from or merged as what, survives its
// own encoding, and returns that encoding.
func roundTrip(t *testing.T, m Monoid, what string, s State) string {
	t.Helper()
	first := s.Encode()
	back, err := m.Decode(first)
	if err != nil {
		t.Fatalf("%s: %s accepted, its encoding %q is rejected: %v", m.Name(), what, first, err)
	}
	if second := back.Encode(); second != first {
		t.Fatalf("%s: %s re-encodes to %q, then to %q", m.Name(), what, first, second)
	}
	if got, want := finals(back), finals(s); got != want {
		t.Fatalf("%s: %s reports %q, its round trip %q", m.Name(), what, want, got)
	}
	return first
}

// FuzzSketchMatchesReference runs the freq and distinct sketches beside
// their pre-rewrite copies (reference_test.go) on a program the fuzz
// bytes spell: absorbs over a 40-value alphabet (past the 32-candidate
// cap, with tied estimates), merges between two slots, round trips
// through both decoders and decodes of raw bytes, each also as a Load
// into the used state, and resets, fresh or in place. After every step
// each slot must encode and report the same on both sides, the two
// decoders must accept and reject the same inputs, and a Load must give
// a fresh Decode's verdict and encoding.
func FuzzSketchMatchesReference(f *testing.F) {
	f.Add([]byte{7, 0, 33})                                             // v0..v32 once each: the cap is crossed on a tie
	f.Add([]byte{7, 0, 40, 0x17, 10, 30, 3, 4, 2, 9})                   // both slots over the cap, merged, round-tripped
	f.Add([]byte("\x05\x180.0:9223372036854775807|\x15\x060.0:1|\x13")) // a refused overflow
	f.Add([]byte("\x05\x05s1:2,\x05\x04s1:2\x05\x02|a"))                // a trailing separator
	f.Add([]byte("\x05\x070.0:1;|\x05\x03|a,\x05\x05|a,,b"))
	f.Add([]byte("\x07\x00\x28\x17\x05\x21\x0c\x0e\x02\x0c\x13\x0d\x04|a,b\x1d\x03|a,")) // Load and Reset in place
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			return
		}
		runSketchProgram(t, prog)
	})
}

// sketchAlphabet has more values than the candidate cap, a few of which
// need escaping on the wire.
var sketchAlphabet = func() []string {
	out := []string{"a b", "x,y|z;", "100%", "é"}
	for i := len(out); i < 40; i++ {
		out = append(out, "v"+strconv.Itoa(i))
	}
	return out
}()

// sketchPair is one state of a rewritten sketch and one of its
// reference, fed the same steps; enc is the encoding both sides had at
// the last check.
type sketchPair struct {
	kind      *sketchKind
	got, want State
	enc       string
}

type sketchKind struct {
	m         Monoid
	refZero   func() State
	refDecode func(string) (State, error)
	// wrapped reports whether a reference state has a counter that
	// wrapped past int64.
	wrapped func(State) bool
}

var sketchKinds = []*sketchKind{
	{
		m:         freqMonoid{},
		refZero:   func() State { return newRefFreqState() },
		refDecode: refFreqDecode,
		wrapped: func(s State) bool {
			for _, row := range s.(*refFreqState).cells {
				for _, v := range row {
					if v < 0 {
						return true
					}
				}
			}
			return false
		},
	},
	{
		m:         hllMonoid{},
		refZero:   func() State { return &refHLLState{} },
		refDecode: refHLLDecode,
		wrapped:   func(State) bool { return false },
	},
}

func newSketchPair(k *sketchKind) *sketchPair {
	return &sketchPair{kind: k, got: k.m.Zero(), want: k.refZero()}
}

// step applies one operation to both sides. The rewrite refuses a step
// that would wrap a counter and keeps its state; the reference wraps.
// So a refusal must leave the rewrite's state as it was and come on a
// step the reference wrapped on, and the reference is rolled back.
func (p *sketchPair) step(t *testing.T, what string, got, want func() error) {
	t.Helper()
	before := p.enc
	if err := want(); err != nil {
		t.Fatalf("%s: reference refused %s: %v", p.kind.m.Name(), what, err)
	}
	if err := got(); err != nil {
		if enc := p.got.Encode(); enc != before {
			t.Fatalf("%s: refused %s (%v) but changed the state from %q to %q", p.kind.m.Name(), what, err, before, enc)
		}
		if !p.kind.wrapped(p.want) {
			t.Fatalf("%s: refused %s, which the reference takes without wrapping: %v", p.kind.m.Name(), what, err)
		}
		back, err := p.kind.refDecode(before)
		if err != nil {
			t.Fatalf("%s: reference rejects its own encoding %q: %v", p.kind.m.Name(), before, err)
		}
		p.want = back
	}
	p.check(t, what)
}

// decode replaces both sides with the decoding of enc, after checking
// that both decoders give the same verdict and state.
func (p *sketchPair) decode(t *testing.T, what, enc string) {
	t.Helper()
	got, gotErr := p.kind.m.Decode(enc)
	want, wantErr := p.kind.refDecode(enc)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: %s: Decode(%q) gives %v, the reference %v", p.kind.m.Name(), what, enc, gotErr, wantErr)
	}
	if gotErr == nil {
		p.got, p.want = got, want
	}
	p.check(t, what)
	p.checkFinal(t, what)
}

// load is decode by Load into the rewrite's used state, which must give
// a fresh Decode's verdict and encoding. A refused Load leaves Zero, so
// the reference side restarts from Zero too.
func (p *sketchPair) load(t *testing.T, what, enc string) {
	t.Helper()
	fresh, freshErr := p.kind.m.Decode(enc)
	want, wantErr := p.kind.refDecode(enc)
	err := p.got.Load(enc)
	if (err == nil) != (freshErr == nil) || (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: %s: Load(%q) into a used state gives %v, Decode %v, the reference %v", p.kind.m.Name(), what, enc, err, freshErr, wantErr)
	}
	if err != nil {
		want = p.kind.refZero()
	} else if got := p.got.Encode(); got != fresh.Encode() {
		t.Fatalf("%s: %s: Load(%q) encodes as\n%q\nDecode as\n%q", p.kind.m.Name(), what, enc, got, fresh.Encode())
	}
	p.want = want
	p.check(t, what)
	p.checkFinal(t, what)
}

// check requires both sides to encode alike. Encodings are lossless, so
// this covers the whole abstract state.
func (p *sketchPair) check(t *testing.T, what string) {
	t.Helper()
	got, want := p.got.Encode(), p.want.Encode()
	if got != want {
		t.Fatalf("%s: after %s the state encodes as\n%q\nthe reference as\n%q", p.kind.m.Name(), what, got, want)
	}
	p.enc = got
}

// checkFinal requires both sides to report alike: it covers Top's
// ranking, which reads the cached buckets.
func (p *sketchPair) checkFinal(t *testing.T, what string) {
	t.Helper()
	if got, want := finals(p.got), finals(p.want); got != want {
		t.Fatalf("%s: after %s Final gives %q, the reference %q", p.kind.m.Name(), what, got, want)
	}
}

func (p *sketchPair) absorb(t *testing.T, v string) {
	t.Helper()
	p.step(t, "Absorb("+strconv.Quote(v)+")",
		func() error { return p.got.Absorb(v) },
		func() error { return p.want.Absorb(v) })
}

func (p *sketchPair) merge(t *testing.T, o *sketchPair) {
	t.Helper()
	p.step(t, "Merge",
		func() error { return p.got.Merge(o.got) },
		func() error { return p.want.Merge(o.want) })
	p.checkFinal(t, "Merge")
}

// runSketchProgram interprets prog, one operation per byte: the low
// three bits pick it, bit 3 a variant of a decode or a reset, bit 4 the
// slot it acts on, and some take operand bytes. Every operation runs on
// both sketches.
func runSketchProgram(t *testing.T, prog []byte) {
	var slots [2][]*sketchPair
	for i := range slots {
		for _, k := range sketchKinds {
			slots[i] = append(slots[i], newSketchPair(k))
		}
	}
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	for len(prog) > 0 {
		op := next()
		dst, src := slots[op>>4&1], slots[1-op>>4&1]
		switch op & 7 {
		case 0, 1, 2: // absorb one value
			v := sketchAlphabet[next()%len(sketchAlphabet)]
			for _, p := range dst {
				p.absorb(t, v)
			}
		case 3: // merge the other slot in
			for i, p := range dst {
				p.merge(t, src[i])
			}
		case 4: // round trip through both decoders, or Load into the used state
			for _, p := range dst {
				if op&8 == 0 {
					p.decode(t, "a round trip", p.enc)
				} else {
					p.load(t, "a Load round trip", p.enc)
				}
			}
		case 5: // decode raw bytes
			n := next() % 48
			if n > len(prog) {
				n = len(prog)
			}
			raw := string(prog[:n])
			prog = prog[n:]
			for _, p := range dst {
				if op&8 == 0 {
					p.decode(t, "a raw decode", raw)
				} else {
					p.load(t, "a raw Load", raw)
				}
			}
		case 6: // a fresh state, or Reset in place
			for i, p := range dst {
				if op&8 == 0 {
					dst[i] = newSketchPair(p.kind)
					continue
				}
				p.got.Reset()
				p.want = p.kind.refZero()
				p.check(t, "Reset")
				p.checkFinal(t, "Reset")
			}
		case 7: // absorb a run of consecutive alphabet values
			start, n := next(), next()%48
			for j := 0; j < n; j++ {
				v := sketchAlphabet[(start+j)%len(sketchAlphabet)]
				for _, p := range dst {
					p.absorb(t, v)
				}
			}
		}
	}
	for _, slot := range slots {
		for _, p := range slot {
			p.checkFinal(t, "the program")
		}
	}
}
