// Command benchrun regenerates the repository's experiment tables: the
// paper's Figures 1–7 as runnable scenarios (F1–F7), every prose
// performance claim as a measured comparison (C1–C11), and the
// extensions (X*). `benchrun -list` prints the experiment index; the
// README's "Experiments" section summarizes the extensions.
//
// Usage:
//
//	benchrun            # run everything at full scale
//	benchrun -quick     # CI-sized runs
//	benchrun -exp C5    # one experiment
//	benchrun -list      # list experiment ids
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"p2pm/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command against the given flags and streams; it
// returns the process exit code (separated from main for testing).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run reduced-size experiments")
	exp := fs.String("exp", "", "run a single experiment by id (e.g. C5)")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", r.ID, r.Name)
		}
		return 0
	}
	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	runners := experiments.All()
	if *exp != "" {
		r, ok := experiments.Lookup(*exp)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q; try -list\n", *exp)
			return 2
		}
		runners = []experiments.Runner{r}
	}

	failures := 0
	for _, r := range runners {
		start := time.Now()
		res, err := r.Run(scale)
		if err != nil {
			fmt.Fprintf(stderr, "%s: error: %v\n", r.ID, err)
			failures++
			continue
		}
		fmt.Fprintln(stdout, res)
		fmt.Fprintf(stdout, "(%s in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
		if !res.Holds {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "%d experiment(s) failed to reproduce their claim shape\n", failures)
		return 1
	}
	fmt.Fprintln(stdout, "all experiment claim shapes reproduced")
	return 0
}
