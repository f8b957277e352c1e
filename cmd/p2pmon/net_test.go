package main

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
)

func TestNetScenarioSimnet(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"net"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("net scenario emitted %d lines, want 5:\n%s", len(lines), out.String())
	}
	for w, l := range lines {
		want := fmt.Sprintf("window=%d fn=count count=32 events=32 sources=2", w)
		if l != want {
			t.Errorf("line %d = %q, want %q", w, l, want)
		}
	}
}

func TestNetScenarioDeterministic(t *testing.T) {
	args := []string{"net", "-nodes", "4", "-windows", "3", "-agg-fn", "distinct"}
	var a, b bytes.Buffer
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("two identical net runs diverged:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestNetScenarioTCPMatchesSimnet runs a full 3-member TCP cluster
// in-process (one run() per member, as three OS processes would) and
// requires the root's stdout to be byte-identical to the simnet run —
// the CLI-level form of the acceptance criterion that
// scripts/netsmoke.sh checks across real processes.
func TestNetScenarioTCPMatchesSimnet(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster skipped in -short")
	}
	var want bytes.Buffer
	if err := run([]string{"net", "-windows", "3"}, &want); err != nil {
		t.Fatal(err)
	}
	// Reserve three loopback ports.
	addrs := make(map[string]string, 3)
	for _, n := range []string{"n1", "n2", "n3"} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[n] = l.Addr().String()
		l.Close()
	}
	peers := fmt.Sprintf("n1=%s,n2=%s,n3=%s", addrs["n1"], addrs["n2"], addrs["n3"])
	// Fill both maps before spawning anything: the goroutines only read
	// addrs and write through their own *bytes.Buffer.
	outs := make(map[string]*bytes.Buffer, 3)
	for name := range addrs {
		outs[name] = &bytes.Buffer{}
	}
	errs := make(map[string]error, 3)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for name, out := range outs {
		wg.Add(1)
		go func(name string, out *bytes.Buffer) {
			defer wg.Done()
			err := run([]string{"net", "-windows", "3",
				"-listen", addrs[name], "-name", name, "-peers", peers}, out)
			mu.Lock()
			errs[name] = err
			mu.Unlock()
		}(name, out)
	}
	wg.Wait()
	for name, err := range errs {
		if err != nil {
			t.Fatalf("member %s: %v", name, err)
		}
	}
	if got := outs["n1"].String(); got != want.String() {
		t.Errorf("tcp root output != simnet output\n got:\n%s\nwant:\n%s", got, want.String())
	}
	if outs["n2"].Len() != 0 || outs["n3"].Len() != 0 {
		t.Errorf("non-root members wrote to stdout: n2=%q n3=%q", outs["n2"], outs["n3"])
	}
}

func TestNetFlagValidation(t *testing.T) {
	bad := [][]string{
		{"net", "-nodes", "1"},
		{"net", "-name", "n1"},              // -name without -listen
		{"net", "-peers", "n1=127.0.0.1:1"}, // -peers without -listen
		{"net", "-listen", "127.0.0.1:0"},   // -listen without -name/-peers
		{"net", "-listen", "127.0.0.1:0", "-name", "n9", "-peers", "n1=a,n2=b"}, // self not in map
		{"net", "-listen", "127.0.0.1:0", "-name", "n1", "-peers", "garbage"},   // bad map entry
		{"net", "-agg-fn", "median"},                                            // unknown aggregate
		{"net", "-replay"},                                                      // lab flag from another scenario
		{"net", "-events", "10"},                                                // ditto
		{"net", "-no-reuse"},                                                    // optimizer knob
		{"churn", "-windows", "4"},                                              // net flag elsewhere
		{"agg", "-nodes", "3"},                                                  // ditto
		{"meteo", "-listen", "127.0.0.1:0"},
	}
	for _, args := range bad {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("accepted: %v", args)
		}
	}
}
