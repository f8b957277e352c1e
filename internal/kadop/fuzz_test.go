package kadop_test

import (
	"reflect"
	"testing"
	"unicode/utf8"

	"p2pm/internal/algebra"
	"p2pm/internal/kadop"
	"p2pm/internal/p2pml"
	"p2pm/internal/reuse"
	"p2pm/internal/xmltree"
)

// publishedDescriptors returns the record text of every descriptor a
// join subscription and a subsumption pair publish — the fuzz corpus.
func publishedDescriptors(f *testing.F) []string {
	db, nextID := newDB(f, 1)
	for _, src := range []string{
		`for $c1 in outCOM(<p>a.com</p><p>b.com</p>), $c2 in inCOM(<p>meteo.com</p>)
		let $duration := $c1.responseTimestamp - $c1.callTimestamp
		where $duration > 10 and $c1.callMethod = "GetTemperature" and $c1.callId = $c2.callId
		return <incident type="slowAnswer"><client>{$c1.caller}</client></incident>
		by publish as channel "alertQoS"`,
		`for $e in inCOM(<p>m.com</p>) where $e.callMethod = "Q" and $e.fault != "" return $e by publish as channel "base"`,
		`for $e in inCOM(<p>s0</p><p>s1</p>) return $e group on "callee" window "24s" by publish as channel "g"`,
	} {
		plan, err := algebra.Compile(p2pml.MustParse(src))
		if err != nil {
			f.Fatal(err)
		}
		if _, err := reuse.PublishPlan(db, algebra.Optimize(plan, algebra.DefaultOptions("p")), nil, nextID); err != nil {
			f.Fatal(err)
		}
	}
	var out []string
	for _, c := range db.Document().Children {
		out = append(out, c.String())
	}
	if len(out) == 0 {
		f.Fatal("no descriptors published")
	}
	return out
}

// FuzzParseDef: lookups keep what this decoder returns for the life of
// the database, so it must never panic on arbitrary record text, and a
// descriptor it accepts must come back unchanged from its own rendering.
func FuzzParseDef(f *testing.F) {
	for _, xml := range publishedDescriptors(f) {
		f.Add(xml)
	}
	f.Add(`<Stream PeerId="p" StreamId="s" isAChannel="true"><Operator><inCOM/></Operator><Operands/><Stats avgVolume="1"/></Stream>`)
	f.Add(`<Stream PeerId="p" StreamId="s" group="k/1s"><Operator><PartialAgg/></Operator><Sources><Src>inCOM(a)</Src></Sources><Operands><Operand OPeerId="a" OStreamId="s1"/></Operands></Stream>`)
	// A group over a projection: the optimizer drops an identity Π under
	// γ, so the subscriptions above no longer publish this shape.
	f.Add(`<Stream PeerId="s1" StreamId="s4" isAChannel="true" signature="Group{callee/24s}(Restructure{$e}(Union{}(inCOM(s0),inCOM(s1))))"><Operator><Group/></Operator><Operands><Operand OPeerId="s1" OStreamId="s3"/></Operands><Stats/></Stream>`)
	f.Add(`<Stream PeerId="p"`)
	f.Fuzz(func(t *testing.T, text string) {
		n, err := xmltree.Parse(text)
		if err != nil {
			return
		}
		def, err := kadop.ParseDef(n)
		if err != nil || !utf8.ValidString(text) {
			// The serializer writes U+FFFD for a byte that is not UTF-8, so
			// only valid text can be expected back.
			return
		}
		rendered := def.ToXML().String()
		n2, err := xmltree.Parse(rendered)
		if err != nil {
			t.Fatalf("rendering of an accepted descriptor does not parse: %v\n%s", err, rendered)
		}
		back, err := kadop.ParseDef(n2)
		if err != nil {
			t.Fatalf("rendering of an accepted descriptor is rejected: %v\n%s", err, rendered)
		}
		if !reflect.DeepEqual(def, back) {
			t.Fatalf("descriptor changed across its own rendering:\n first  %+v\n second %+v\n via %s", def, back, rendered)
		}
	})
}
