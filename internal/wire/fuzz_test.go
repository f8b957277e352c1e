package wire

import (
	"bytes"
	"testing"
)

// FuzzDecode drives arbitrary bytes through Decode. The invariants:
// Decode never panics, every rejection is an error counted in the
// dropped counter, and anything that decodes re-encodes into bytes
// that decode to the same message (the codec is self-consistent even
// for inputs a peer never produced — unknown fields are dropped on
// re-encode, so we compare the second decode against the first).
//
// The committed seed corpus (testdata/fuzz/FuzzDecode) covers every
// message kind plus the truncation/corruption edges; `go test -fuzz
// FuzzDecode ./internal/wire` explores from there.
func FuzzDecode(f *testing.F) {
	for _, m := range every() {
		f.Add(Encode(m))
	}
	f.Add([]byte{})
	f.Add([]byte{'P', 'W'})
	f.Add([]byte{'P', 'W', 1, byte(KindItem), 0x80})
	f.Add([]byte{'P', 'W', 2, byte(KindGossip), 1, 2, 0x80, 0x80})
	f.Add(append(Encode(&CkptPut{Key: "k", Value: "v"}), 0xff, 0xff, 0xff))

	f.Fuzz(func(t *testing.T, data []byte) {
		var st Stats
		m, err := st.Decode(data)
		if err != nil {
			if st.Dropped() != 1 || st.Decoded() != 0 {
				t.Fatalf("error not counted as dropped: dropped=%d decoded=%d", st.Dropped(), st.Decoded())
			}
			return
		}
		if st.Decoded() != 1 {
			t.Fatalf("success not counted: decoded=%d", st.Decoded())
		}
		// Re-encode and decode again: must be stable.
		b2 := Encode(m)
		m2, err := Decode(b2)
		if err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v", err)
		}
		if !bytes.Equal(Encode(m2), b2) {
			t.Fatalf("re-encoding is not a fixed point:\n first %x\nsecond %x", b2, Encode(m2))
		}
	})
}

// FuzzEncodeMatchesReference: whatever message the fuzzer can make
// Decode produce, Encode renders it byte for byte as the pre-PR-17
// reference encoder (wire_test.go) does, Size agrees with the length,
// and appending after a prefix leaves the prefix alone.
func FuzzEncodeMatchesReference(f *testing.F) {
	for _, m := range every() {
		f.Add(Encode(m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		checkAgainstReference(t, m)
		if got := AppendEncode([]byte{0xaa}, m); got[0] != 0xaa || !bytes.Equal(got[1:], refEncode(m)) {
			t.Fatalf("%s: AppendEncode after a prefix differs from the reference", m.Kind())
		}
	})
}
