// Command p2pmlc is the P2PML compiler front end: it parses a
// subscription, prints its canonical form, and renders the Figure 3
// processing chain (compiled plan, optimized distributed plan).
//
// Usage:
//
//	p2pmlc -e 'for $c in inCOM(<p>m.com</p>) return $c by channel X'
//	p2pmlc subscription.p2pml
//	echo '...' | p2pmlc
//	p2pmlc -subscriber noc.example -e '...'
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"p2pm/internal/peer"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run compiles the subscription that args name (or stdin holds) and
// writes its explanation to out.
func run(args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("p2pmlc", flag.ContinueOnError)
	expr := fs.String("e", "", "subscription text (instead of a file/stdin)")
	subscriber := fs.String("subscriber", "p", "peer that manages the subscription")
	parseOnly := fs.Bool("parse", false, "stop after parsing (print canonical form only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := input(*expr, fs.Args(), stdin)
	if err != nil {
		return err
	}
	ex, err := peer.Explain(src, *subscriber)
	if err != nil {
		return err
	}
	if *parseOnly {
		fmt.Fprintln(out, ex.Subscription)
		return nil
	}
	fmt.Fprintln(out, ex)
	return nil
}

func input(expr string, args []string, stdin io.Reader) (string, error) {
	if expr != "" {
		return expr, nil
	}
	if len(args) == 1 {
		b, err := os.ReadFile(args[0])
		if err != nil {
			return "", err
		}
		return string(b), nil
	}
	if len(args) > 1 {
		return "", fmt.Errorf("p2pmlc: at most one input file")
	}
	b, err := io.ReadAll(stdin)
	if err != nil {
		return "", err
	}
	if len(b) == 0 {
		return "", fmt.Errorf("p2pmlc: no input (use -e, a file, or stdin)")
	}
	return string(b), nil
}
