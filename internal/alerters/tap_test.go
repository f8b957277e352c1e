package alerters

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"p2pm/internal/operators"
	"p2pm/internal/simnet"
	"p2pm/internal/soap"
	"p2pm/internal/stream"
	"p2pm/internal/xmltree"
)

// tapWorld is one fabric with a server (two working methods, one that
// faults) and a client, plus the clock both sides of a comparison share
// a schedule on.
type tapWorld struct {
	nw       *simnet.Network
	srv, cli *soap.Endpoint
}

func newTapWorld() *tapWorld {
	nw := simnet.New(simnet.DefaultOptions())
	fab := soap.NewFabric(nw)
	srv := fab.Endpoint("srv")
	srv.Register("temp", func(p *xmltree.Node) (*xmltree.Node, error) {
		return xmltree.ElemText("temp", "21"), nil
	}, func() time.Duration { return 1500 * time.Microsecond })
	srv.Register("echo", func(p *xmltree.Node) (*xmltree.Node, error) { return p, nil }, nil)
	srv.Register("bad", func(*xmltree.Node) (*xmltree.Node, error) {
		return nil, fmt.Errorf("backend down")
	}, nil)
	return &tapWorld{nw: nw, srv: srv, cli: fab.Endpoint("http://cli")}
}

// drive issues the same call schedule on any world: plain calls, a
// faulting one, a missing method and a missing endpoint, the clock
// moving in between.
func (w *tapWorld) drive() {
	for i := 0; i < 5; i++ {
		w.cli.Invoke("srv", "temp", xmltree.ElemText("city", "paris")) //nolint:errcheck
		w.nw.Clock().Advance(1234567 * time.Nanosecond)
		w.cli.Invoke("srv", "echo", xmltree.Elem("q", xmltree.ElemText("n", strconv.Itoa(i)))) //nolint:errcheck
		w.cli.Invoke("srv", "bad", nil)                                                        //nolint:errcheck // the fault is the point
		w.cli.Invoke("srv", "nope", nil)                                                       //nolint:errcheck // no such method
		w.cli.Invoke("ghost", "temp", nil)                                                     //nolint:errcheck // no such endpoint
		w.nw.Clock().Advance(time.Second)
	}
}

// TestTapMatchesIndependentAlerters: N alerters attached to one tap see
// exactly what N stand-alone alerters, each registered as its own hook
// the way the runtime used to, see — same count, bytes, Seq, Source and
// Time, in the same order — and the tap's listeners share one tree per
// call.
func TestTapMatchesIndependentAlerters(t *testing.T) {
	for _, n := range []int{1, 4, 16} {
		for _, dir := range []Direction{Inbound, Outbound} {
			for _, mode := range []string{"envelope", "bare", "mixed"} {
				t.Run(fmt.Sprintf("n=%d/%v/%s", n, dir, mode), func(t *testing.T) {
					envelope := func(i int) bool { return mode == "envelope" || (mode == "mixed" && i%2 == 0) }
					old, tapped := newTapWorld(), newTapWorld()
					want, got := make([][]stream.Item, n), make([][]stream.Item, n)
					tap := NewTap("srv", dir, tapped.nw.Clock().Now)
					if dir == Outbound {
						tap = NewTap("http://cli", dir, tapped.nw.Clock().Now)
					}
					for i := 0; i < n; i++ {
						name := fmt.Sprintf("%v-%d", dir, i)
						al := NewWS(name, dir, envelope(i), old.nw.Clock().Now, func(it stream.Item) { want[i] = append(want[i], it) })
						if dir == Inbound {
							old.srv.OnInbound(al.Hook())
						} else {
							old.cli.OnOutbound(al.Hook())
						}
						tap.Attach(name, envelope(i), func(it stream.Item) { got[i] = append(got[i], it) })
					}
					if dir == Inbound {
						tapped.srv.OnInbound(tap.Hook())
					} else {
						tapped.cli.OnOutbound(tap.Hook())
					}
					old.drive()
					tapped.drive()

					for i := range want {
						if len(want[i]) == 0 || len(got[i]) != len(want[i]) {
							t.Fatalf("listener %d: %d alerts through the tap, %d stand-alone", i, len(got[i]), len(want[i]))
						}
						for k, w := range want[i] {
							g := got[i][k]
							if g.Tree.String() != w.Tree.String() || g.Seq != w.Seq || g.Source != w.Source || g.Time != w.Time {
								t.Fatalf("listener %d alert %d:\n tap  %d %s %v %s\n want %d %s %v %s",
									i, k, g.Seq, g.Source, g.Time, g.Tree, w.Seq, w.Source, w.Time, w.Tree)
							}
							// One tree per call and envelope flavour, however many listen.
							first := 0
							if mode == "mixed" {
								first = i % 2
							}
							if g.Tree != got[first][k].Tree {
								t.Fatalf("listener %d alert %d: not the tree listener %d received", i, k, first)
							}
						}
					}
				})
			}
		}
	}
}

// TestTapCostIndependentOfListeners: the tap allocates per exchange, not
// per attached alerter, and nothing at all with nobody attached; an alert
// with its envelope is one Builder's three chunks plus one string that
// everything it renders (two timestamps, the caller's URL, the response
// label) is cut from — it was 23 allocations when every node and list was
// its own. A bare alert has no child list, so its Builder takes two
// chunks. With both flavours attached, each is built once.
func TestTapCostIndependentOfListeners(t *testing.T) {
	x := soap.Exchange{CallID: "call-7", Method: "temp", Caller: "cli", Callee: "srv",
		CallTime: 3 * time.Second, ResponseTime: 3*time.Second + 4*time.Millisecond,
		Params: xmltree.ElemText("city", "paris"), Result: xmltree.ElemText("temp", "21")}
	allocs := func(n int, envelope func(i int) bool) float64 {
		tap := NewTap("srv", Inbound, nil)
		for i := 0; i < n; i++ {
			tap.Attach("in@srv", envelope(i), func(stream.Item) {})
		}
		hook := tap.Hook()
		return testing.AllocsPerRun(100, func() { hook(x) })
	}
	for _, c := range []struct {
		flavour  string
		envelope func(i int) bool
		fewest   int // listeners that use every flavour of the case
		want     float64
	}{
		{"with its envelope", func(int) bool { return true }, 1, 4},
		{"bare", func(int) bool { return false }, 1, 3},
		{"in both flavours", func(i int) bool { return i%2 == 1 }, 2, 7},
	} {
		if got := allocs(0, c.envelope); got != 0 {
			t.Errorf("an idle tap allocates %.0f per exchange", got)
		}
		one := allocs(c.fewest, c.envelope)
		if one != c.want {
			t.Errorf("an alert %s takes %.0f allocations, want %.0f", c.flavour, one, c.want)
		}
		for _, n := range []int{4, 16} {
			if got := allocs(n, c.envelope); got != one {
				t.Errorf("%s, %d listeners: %.0f allocs per exchange, %.0f with the fewest", c.flavour, n, got, one)
			}
		}
	}
}

// TestTapCallAllocs pins a whole monitored call as the client pays it —
// soap.Invoke across simnet with a tap on the server's inbound hook that
// fires inside the hook: the exchange's 4 allocations with nobody
// attached, and the alert's 4 on top for 1, 4 and 16 alerters alike.
func TestTapCallAllocs(t *testing.T) {
	for subs, want := range map[int]float64{0: 4, 1: 8, 4: 8, 16: 8} {
		nw := simnet.New(simnet.DefaultOptions())
		fabric := soap.NewFabric(nw)
		srv := fabric.Endpoint("srv")
		srv.Register("temp", func(*xmltree.Node) (*xmltree.Node, error) {
			return xmltree.ElemText("temp", "21"), nil
		}, nil)
		tap := NewTap("srv", Inbound, nw.Clock().Now)
		srv.OnInbound(tap.Hook())
		for i := 0; i < subs; i++ {
			tap.Attach("inCOM@srv", true, func(stream.Item) {})
		}
		client, params := fabric.Endpoint("client"), xmltree.ElemText("city", "paris")
		call := func() {
			if _, err := client.Invoke("srv", "temp", params); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(200, call); got != want {
			t.Errorf("%d alerters: %v allocs per call, want %v", subs, got, want)
		}
	}
}

// TestTapDetach: a detached alerter receives nothing further, the others
// are undisturbed, and detaching twice is harmless.
func TestTapDetach(t *testing.T) {
	w := newTapWorld()
	tap := NewTap("srv", Inbound, w.nw.Clock().Now)
	w.srv.OnInbound(tap.Hook())
	var a, b int
	detachA := tap.Attach("a", false, func(stream.Item) { a++ })
	tap.Attach("b", false, func(stream.Item) { b++ })
	w.cli.Invoke("srv", "temp", nil) //nolint:errcheck
	detachA()
	detachA()
	w.cli.Invoke("srv", "temp", nil) //nolint:errcheck
	if a != 1 || b != 2 || tap.Attached() != 1 {
		t.Fatalf("a=%d b=%d attached=%d, want 1 2 1", a, b, tap.Attached())
	}
}

// TestTapAttachDetachRace: alerters come and go while calls are in
// flight; every alerter attached for the whole run still sees every call
// exactly once, each caller's calls in the order it made them.
func TestTapAttachDetachRace(t *testing.T) {
	const invokers, churners, listeners, calls = 4, 4, 4, 300
	w := newTapWorld()
	tap := NewTap("srv", Inbound, w.nw.Clock().Now)
	w.srv.OnInbound(tap.Hook())

	type seen struct {
		mu     sync.Mutex
		byCall map[string][]int // calling goroutine → call numbers, in arrival order
	}
	steady := make([]*seen, listeners)
	for i := range steady {
		s := &seen{byCall: make(map[string][]int)}
		steady[i] = s
		tap.Attach(fmt.Sprintf("steady-%d", i), true, func(it stream.Item) {
			q := it.Tree.Child("Envelope").Child("Body").Child("echo").Child("q")
			n, _ := strconv.Atoi(q.AttrOr("n", ""))
			s.mu.Lock()
			s.byCall[q.AttrOr("g", "")] = append(s.byCall[q.AttrOr("g", "")], n)
			s.mu.Unlock()
		})
	}

	stop := make(chan struct{})
	var churn, invoke sync.WaitGroup
	for c := 0; c < churners; c++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				detach := tap.Attach("churn", c%2 == 0, func(stream.Item) {})
				detach()
			}
		}()
	}
	for g := 0; g < invokers; g++ {
		invoke.Add(1)
		go func() {
			defer invoke.Done()
			for n := 0; n < calls; n++ {
				q := xmltree.Elem("q")
				q.SetAttr("g", strconv.Itoa(g)).SetAttr("n", strconv.Itoa(n))
				if _, err := w.cli.Invoke("srv", "echo", q); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	invoke.Wait()
	close(stop)
	churn.Wait()

	if got := tap.Attached(); got != listeners {
		t.Errorf("%d attached at the end, want the %d steady ones", got, listeners)
	}
	for i, s := range steady {
		for g := 0; g < invokers; g++ {
			got := s.byCall[strconv.Itoa(g)]
			if len(got) != calls {
				t.Fatalf("listener %d saw %d of caller %d's %d calls", i, len(got), g, calls)
			}
			for n, v := range got {
				if v != n {
					t.Fatalf("listener %d, caller %d: call %d arrived in position %d", i, g, v, n)
				}
			}
		}
	}
}

// TestSecondsMatchesFormatFloat holds the integer formatter to the
// one-liner it replaced, byte for byte, over every class of duration the
// argument in its comment distinguishes.
func TestSecondsMatchesFormatFloat(t *testing.T) {
	reference := func(d time.Duration) string { return strconv.FormatFloat(d.Seconds(), 'f', 3, 64) }
	check := func(d time.Duration) {
		if got, want := string(appendSeconds([]byte("x"), d)[1:]), reference(d); got != want {
			t.Fatalf("appendSeconds(%d ns) = %q, FormatFloat gives %q", int64(d), got, want)
		}
	}
	for _, d := range []time.Duration{0, 1, 499_999, 500_000, 500_001, 999_499, 999_500, 999_999_500,
		62_500_000, 187_500_000, time.Millisecond, time.Second, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<63 - 1, -1, -500_000, -1 << 63} {
		check(d)
	}
	rng := rand.New(rand.NewSource(20))
	const each = 120_000
	for i := 0; i < each; i++ {
		check(time.Duration(rng.Int63n(1 << 53)))                   // anywhere the fast path reaches
		check(time.Duration(rng.Int63n(int64(1000 * time.Second)))) // the range runs live in
		check(time.Duration(rng.Int63n(1<<33)) * time.Millisecond)  // exact milliseconds
		ms := time.Duration(rng.Int63n(1<<33)) * time.Millisecond   // around the rounding tie,
		check(ms + 499_990 + time.Duration(rng.Int63n(21)))         // guard band edges included
		check(ms + 498_990 + time.Duration(rng.Int63n(21)))         // lower edge of the band
		check(ms + 500_990 + time.Duration(rng.Int63n(21)))         // upper edge of the band
		check(-time.Duration(rng.Int63n(1 << 53)))                  // negatives
		check(time.Duration(1<<53 + rng.Int63n(1<<62)))             // beyond the fast path
		check(time.Duration(2*rng.Int63n(1<<25)+1) * 62_500_000)    // odd multiples of 1/16 s: true ties
	}
}

// TestTapBarrierOnLoop: on a loop the hook only captures. With nothing
// attached it captures and allocates nothing; with an alerter attached, N
// exchanges and an immediate detach deliver exactly N alerts — the detach
// fires what the loop has not — and an exchange after the detach none.
func TestTapBarrierOnLoop(t *testing.T) {
	x := soap.Exchange{CallID: "call-7", Method: "temp", Caller: "cli", Callee: "srv",
		Params: xmltree.ElemText("city", "paris"), Result: xmltree.ElemText("temp", "21")}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			tap := NewTap("srv", Inbound, nil)
			tap.RunOn(operators.NewExecutor(nil))
			hook := tap.Hook()
			if got := testing.AllocsPerRun(100, func() { hook(x) }); got != 0 {
				t.Errorf("an idle tap allocates %.0f per exchange", got)
			}
			if depth, high := tap.Ring(); depth != 0 || high != 0 {
				t.Errorf("an idle tap captured: ring depth %d, high-water %d", depth, high)
			}
			most := 0
			for rep := 0; rep < 200; rep++ {
				got := 0 // written under the tap's mutex, read after detach released it
				detach := tap.Attach("in@srv", true, func(stream.Item) { got++ })
				n := 1 + rep%9
				most = max(most, n)
				for i := 0; i < n; i++ {
					hook(x)
				}
				detach()
				hook(x)
				if got != n {
					t.Fatalf("rep %d: %d alerts for %d exchanges captured before the detach", rep, got, n)
				}
			}
			if depth, high := tap.Ring(); depth != 0 || high < 1 || high > most {
				t.Errorf("ring depth %d, high-water %d after bursts of at most %d", depth, high, most)
			}
		})
	}
}
