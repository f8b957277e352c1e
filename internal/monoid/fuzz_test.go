package monoid

import "testing"

// FuzzMonoidDecode: partials and checkpoints arrive as untrusted text, so
// Decode must never panic, and a state it accepts must survive its own
// encoding: Encode, Decode and Encode again give the same bytes.
func FuzzMonoidDecode(f *testing.F) {
	names := Names()
	for i, name := range names {
		m, _ := Lookup(name)
		f.Add(uint8(i), m.Zero().Encode())
		s := m.Zero()
		if err := s.Absorb("7"); err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(uint8(i), s.Encode())
		if name == "freq" {
			// Two halves of one cell that sum past int64.
			f.Add(uint8(i), "0.0:9223372036854775807;0.0:1|")
		}
	}
	f.Fuzz(func(t *testing.T, pick uint8, enc string) {
		m, _ := Lookup(names[int(pick)%len(names)])
		s, err := m.Decode(enc)
		if err != nil {
			return
		}
		first := s.Encode()
		back, err := m.Decode(first)
		if err != nil {
			t.Fatalf("%s: Decode(%q) accepted, its encoding %q is rejected: %v", m.Name(), enc, first, err)
		}
		if second := back.Encode(); second != first {
			t.Fatalf("%s: Decode(%q) re-encodes to %q, then to %q", m.Name(), enc, first, second)
		}
	})
}
