package experiments

import (
	"fmt"
	"time"

	"p2pm/internal/algebra"
	"p2pm/internal/peer"
	"p2pm/internal/xmltree"
)

func init() {
	register("X1", "subsumption reuse — streams holding sufficient data (paper future work)", runX1)
}

// runX1 measures the implemented future-work extension: a family of
// subscriptions whose condition sets nest (base ⊂ base∧c1 ⊂ base∧c1∧c2
// ...) is deployed with subsumption reuse on and off. With it, each new
// task deploys only a residual filter over the previous stream.
func runX1(s Scale) (*Result, error) {
	res := &Result{
		ID:    "X1",
		Claim: `"We are also interested in detecting and reusing streams that hold sufficient data" (§7, future work — implemented here as subsumption reuse)`,
	}
	depth := 5
	calls := 30
	if s == Quick {
		depth, calls = 3, 10
	}
	table := NewTable("nested condition chains, subsumption on vs off",
		"chain depth", "ops (subsume)", "ops (no reuse)", "alerters (subsume)", "results equal")
	holds := true
	for d := 2; d <= depth; d++ {
		run := func(reuseOn bool) (ops, alerters int, results []int, err error) {
			opts := peer.DefaultConfig()
			opts.Reuse = reuseOn
			sys := peer.MustSystem(opts)
			m := sys.MustAddPeer("m.com")
			m.Endpoint().Register("Q", func(*xmltree.Node) (*xmltree.Node, error) {
				return xmltree.Elem("ok"), nil
			}, nil)
			callers := []string{"c0.com", "c1.com", "c2.com", "c3.com", "c4.com"}
			for _, c := range callers {
				sys.MustAddPeer(c)
			}
			var tasks []*peer.Task
			for i := 0; i < d; i++ {
				mgr := sys.MustAddPeer(fmt.Sprintf("mgr-%d", i))
				// Task i requires callMethod=Q plus i nested caller
				// exclusions — each set strictly contains the previous.
				where := `$e.callMethod = "Q"`
				for j := 0; j < i; j++ {
					where += fmt.Sprintf(` and $e.caller != "http://%s"`, callers[j])
				}
				t, err := mgr.Subscribe(fmt.Sprintf(
					`for $e in inCOM(<p>m.com</p>) where %s return $e by publish as channel "c%d"`, where, i))
				if err != nil {
					return 0, 0, nil, err
				}
				tasks = append(tasks, t)
				ops += t.OperatorsDeployed()
			}
			alerters = countAlerters(tasks)
			for i := 0; i < calls; i++ {
				caller := sys.Peer(callers[i%len(callers)])
				if _, err := caller.Endpoint().Invoke("m.com", "Q", nil); err != nil {
					return 0, 0, nil, err
				}
				sys.Net.Clock().Advance(time.Second)
			}
			for _, t := range tasks {
				t.Stop()
			}
			for _, t := range tasks {
				results = append(results, len(t.Results().Drain()))
			}
			return ops, alerters, results, nil
		}
		opsS, alertersS, resultsS, err := run(true)
		if err != nil {
			return nil, err
		}
		opsN, _, resultsN, err := run(false)
		if err != nil {
			return nil, err
		}
		equal := fmt.Sprint(resultsS) == fmt.Sprint(resultsN)
		table.AddRow(d, opsS, opsN, alertersS, equal)
		if !equal || opsS >= opsN || alertersS != 1 {
			holds = false
		}
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes,
		"every chained task deploys one residual σ over its predecessor's stream; exactly one alerter exists",
		"result streams are identical with and without the optimization")
	res.Holds = holds
	return res, nil
}

// countAlerters counts alerter operators across the deployed task plans.
func countAlerters(tasks []*peer.Task) int {
	count := 0
	for _, t := range tasks {
		t.Plan.Walk(func(n *algebra.Node) {
			if n.Op == algebra.OpAlerter {
				count++
			}
		})
	}
	return count
}
