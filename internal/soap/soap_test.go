package soap

import (
	"fmt"
	"testing"
	"time"

	"p2pm/internal/simnet"
	"p2pm/internal/xmltree"
)

func fabric() (*Fabric, *simnet.Network) {
	nw := simnet.New(simnet.DefaultOptions())
	return NewFabric(nw), nw
}

func TestInvokeRoundTrip(t *testing.T) {
	f, _ := fabric()
	meteo := f.Endpoint("meteo.com")
	meteo.Register("GetTemperature", func(params *xmltree.Node) (*xmltree.Node, error) {
		return xmltree.ElemText("temp", "21"), nil
	}, nil)
	a := f.Endpoint("a.com")
	res, err := a.Invoke("meteo.com", "GetTemperature", xmltree.ElemText("city", "paris"))
	if err != nil {
		t.Fatal(err)
	}
	if res.InnerText() != "21" {
		t.Errorf("res = %s", res)
	}
}

func TestBothSidesObserveSameCallID(t *testing.T) {
	f, _ := fabric()
	meteo := f.Endpoint("meteo.com")
	meteo.Register("GetTemperature", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.ElemText("temp", "21"), nil
	}, nil)
	a := f.Endpoint("a.com")
	var inX, outX []Exchange
	meteo.OnInbound(func(x Exchange) { inX = append(inX, x) })
	a.OnOutbound(func(x Exchange) { outX = append(outX, x) })
	if _, err := a.Invoke("meteo.com", "GetTemperature", nil); err != nil {
		t.Fatal(err)
	}
	if len(inX) != 1 || len(outX) != 1 {
		t.Fatalf("hooks fired in=%d out=%d", len(inX), len(outX))
	}
	if inX[0].CallID != outX[0].CallID {
		t.Errorf("callIDs differ: %s vs %s", inX[0].CallID, outX[0].CallID)
	}
	if inX[0].Caller != "a.com" || inX[0].Callee != "meteo.com" {
		t.Errorf("identities wrong: %+v", inX[0])
	}
}

func TestCallIDsUnique(t *testing.T) {
	f, _ := fabric()
	m := f.Endpoint("m")
	m.Register("ping", func(*xmltree.Node) (*xmltree.Node, error) { return xmltree.Elem("pong"), nil }, nil)
	a := f.Endpoint("a")
	var ids []string
	a.OnOutbound(func(x Exchange) { ids = append(ids, x.CallID) })
	for i := 0; i < 5; i++ {
		if _, err := a.Invoke("m", "ping", nil); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate callID %s", id)
		}
		seen[id] = true
	}
}

func TestServiceLatencyShapesResponseTime(t *testing.T) {
	f, nw := fabric()
	m := f.Endpoint("meteo.com")
	m.Register("GetTemperature", func(*xmltree.Node) (*xmltree.Node, error) {
		return xmltree.ElemText("temp", "21"), nil
	}, func() time.Duration { return 12 * time.Second })
	a := f.Endpoint("a.com")
	var got Exchange
	a.OnOutbound(func(x Exchange) { got = x })
	if _, err := a.Invoke("meteo.com", "GetTemperature", nil); err != nil {
		t.Fatal(err)
	}
	rtt := nw.Latency("a.com", "meteo.com") + nw.Latency("meteo.com", "a.com")
	if got.Duration() != rtt+12*time.Second {
		t.Errorf("duration = %v, want %v", got.Duration(), rtt+12*time.Second)
	}
	if got.Duration() <= 10*time.Second {
		t.Error("slow call should exceed the paper's 10s threshold")
	}
}

func TestInvokeUnknownPeerAndMethod(t *testing.T) {
	f, _ := fabric()
	a := f.Endpoint("a")
	var outX []Exchange
	a.OnOutbound(func(x Exchange) { outX = append(outX, x) })
	if _, err := a.Invoke("ghost", "ping", nil); err == nil {
		t.Error("unknown peer should error")
	}
	f.Endpoint("b")
	if _, err := a.Invoke("b", "nope", nil); err == nil {
		t.Error("unknown method should error")
	}
	if len(outX) != 2 || outX[0].Fault == "" || outX[1].Fault == "" {
		t.Errorf("faults not observed: %+v", outX)
	}
}

func TestHandlerErrorBecomesFault(t *testing.T) {
	f, _ := fabric()
	m := f.Endpoint("m")
	m.Register("bad", func(*xmltree.Node) (*xmltree.Node, error) {
		return nil, fmt.Errorf("backend down")
	}, nil)
	a := f.Endpoint("a")
	var x Exchange
	m.OnInbound(func(e Exchange) { x = e })
	if _, err := a.Invoke("m", "bad", nil); err == nil {
		t.Error("handler error should propagate")
	}
	if x.Fault != "backend down" {
		t.Errorf("fault = %q", x.Fault)
	}
}

func TestEnvelopeShape(t *testing.T) {
	x := Exchange{
		CallID: "call-1", Method: "GetTemperature",
		Caller: "a.com", Callee: "meteo.com",
		Params: xmltree.ElemText("city", "paris"),
		Result: xmltree.ElemText("temp", "21"),
	}
	env := x.Envelope(new(xmltree.Builder), x.Method+"Response")
	if env.Label != "Envelope" {
		t.Fatalf("label = %s", env.Label)
	}
	body := env.Child("Body")
	if body == nil || body.Child("GetTemperature") == nil || body.Child("GetTemperatureResponse") == nil {
		t.Errorf("envelope = %s", env)
	}
	// Fault rendering.
	x.Fault = "oops"
	if x.Envelope(new(xmltree.Builder), x.Method+"Response").Child("Body").Child("Fault") == nil {
		t.Error("fault missing from envelope")
	}
}

func TestInvokeCountsTraffic(t *testing.T) {
	f, nw := fabric()
	m := f.Endpoint("m")
	m.Register("echo", func(p *xmltree.Node) (*xmltree.Node, error) { return p.Clone(), nil }, nil)
	a := f.Endpoint("a")
	if _, err := a.Invoke("m", "echo", xmltree.ElemText("x", "hello")); err != nil {
		t.Fatal(err)
	}
	tot := nw.Totals()
	if tot.Messages != 2 { // request + response
		t.Errorf("messages = %d", tot.Messages)
	}
	if tot.Bytes == 0 {
		t.Error("bytes not counted")
	}
}

func TestEndpointIdempotent(t *testing.T) {
	f, _ := fabric()
	if f.Endpoint("a") != f.Endpoint("a") {
		t.Error("Endpoint should be idempotent per peer")
	}
}
