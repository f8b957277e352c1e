package stream

import (
	"strings"
	"testing"
)

// FuzzParseRef: channel references arrive in subscription text
// (channel("s@p")) and in stream descriptors, so ParseRef must never
// panic, must accept exactly the texts whose first '@' splits two
// non-empty parts, and must render an accepted reference back to its
// text.
func FuzzParseRef(f *testing.F) {
	for _, s := range []string{"s@p", "result1@meteo.com", "a@b@c", "@p", "s@", "@", "", "no-at", "é@ü"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ref, err := ParseRef(s)
		at := strings.IndexByte(s, '@')
		if want := at > 0 && at < len(s)-1; (err == nil) != want {
			t.Fatalf("ParseRef(%q) error %v, want accepted %t", s, err, want)
		}
		if err != nil {
			return
		}
		if ref.String() != s || ref.StreamID != s[:at] {
			t.Fatalf("ParseRef(%q) = %+v, renders %q", s, ref, ref.String())
		}
	})
}
