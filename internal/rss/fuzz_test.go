package rss

import (
	"reflect"
	"testing"

	"p2pm/internal/xmltree"
)

// FuzzRSSParse: the RSS alerter parses whatever a monitored feed
// serves, so Parse must never panic on any parsed document, and a feed
// it accepts must come back equal from its own rendering.
func FuzzRSSParse(f *testing.F) {
	feed := &Feed{Title: "news", Entries: []Entry{{ID: "1", Title: "a", Content: "x &amp; y"}, {ID: "2"}}}
	for _, s := range []string{
		feed.ToXML().String(),
		`<rss version="2.0"><channel><title>t</title></channel></rss>`,
		`<rss><channel><item><title>no guid</title></item></channel></rss>`,
		`<rss><channel><item><guid>g</guid><guid>h</guid><description><b>x</b>y</description></item></channel></rss>`,
		`<rss/>`,
		`<feed/>`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		doc, err := xmltree.Parse(text)
		if err != nil {
			return
		}
		feed, err := Parse(doc)
		if err != nil {
			return
		}
		back, err := Parse(feed.ToXML())
		if err != nil {
			t.Fatalf("rendering of an accepted feed is rejected: %v\n%s", err, feed.ToXML())
		}
		if !reflect.DeepEqual(feed, back) {
			t.Fatalf("feed changed across its own rendering:\n first  %+v\n second %+v", feed, back)
		}
	})
}
