package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/<case>.golden from this run")

// goldenCases are the command lines whose stdout testdata/<case>.golden
// pins byte for byte.
var goldenCases = []struct{ name, args string }{
	{"meteo", "testdata/meteo.p2pml"},
	{"group", "testdata/group.p2pml"},
	{"body", "testdata/body.p2pml"},
	{"parse", "-parse testdata/meteo.p2pml"},
	{"subscriber", "-subscriber noc.example testdata/meteo.p2pml"},
}

// firstDiff names the first line at which got departs from want.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		switch {
		case i == len(g) || i == len(w):
			return fmt.Sprintf("line %d: got %d lines, want %d", i+1, len(g), len(w))
		case g[i] != w[i]:
			return fmt.Sprintf("line %d\n  got:  %q\n  want: %q", i+1, g[i], w[i])
		}
	}
}

// TestGolden runs every case and compares its stdout with
// testdata/<case>.golden.
func TestGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(strings.Fields(c.args), strings.NewReader(""), &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("p2pmlc %s: output moved at %s\nto accept it: go test ./cmd/p2pmlc -run 'TestGolden/^%s$' -update-golden",
					c.args, firstDiff(got, string(want)), c.name)
			}
		})
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{{"-e", "garbage"}, {"-nope"}, {}} {
		if err := run(args, strings.NewReader(""), &bytes.Buffer{}); err == nil {
			t.Errorf("p2pmlc %q: no error", args)
		}
	}
}

func TestInputFromFlag(t *testing.T) {
	got, err := input("for ...", nil, nil)
	if err != nil || got != "for ..." {
		t.Fatalf("got %q err %v", got, err)
	}
}

func TestInputFromStdin(t *testing.T) {
	got, err := input("", nil, strings.NewReader("piped"))
	if err != nil || got != "piped" {
		t.Fatalf("got %q err %v", got, err)
	}
}

func TestInputFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub.p2pml")
	if err := os.WriteFile(path, []byte("file contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := input("", []string{path}, nil)
	if err != nil || got != "file contents" {
		t.Fatalf("got %q err %v", got, err)
	}
	if _, err := input("", []string{path, path}, nil); err == nil {
		t.Error("two files accepted")
	}
	if _, err := input("", []string{"/nonexistent/file"}, nil); err == nil {
		t.Error("missing file accepted")
	}
}
