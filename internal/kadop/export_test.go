package kadop

import (
	"fmt"
	"reflect"

	"p2pm/internal/xmltree"
)

// VerifyMemo decodes every memoized record again from its text and
// returns the number of entries checked, or an error naming the first
// whose shared descriptor (or sort key) no longer equals a fresh decoding
// — which is what a caller writing through a returned *StreamDef causes.
func (db *DB) VerifyMemo() (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for text, rec := range db.memo {
		n, err := xmltree.Parse(text)
		if err != nil {
			return 0, fmt.Errorf("memo holds unparsable record %q: %v", text, err)
		}
		fresh, err := ParseDef(n)
		if err != nil {
			return 0, fmt.Errorf("memo holds undecodable record %q: %v", text, err)
		}
		if !reflect.DeepEqual(fresh, rec.def) || rec.key != fresh.Ref.String() {
			return 0, fmt.Errorf("memoized %s changed:\n cached %+v (key %q)\n fresh  %+v", fresh.Ref, rec.def, rec.key, fresh)
		}
	}
	return len(db.memo), nil
}
