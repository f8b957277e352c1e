package workload

import "testing"

// TestJoinScheduleValidation: the one Common validation applies to every
// scenario — a join schedule that cannot admit every pending worker
// within the run, or a GrowFrom that leaves nobody to admit, is a config
// error in all four, not a silent partial growth in some.
func TestJoinScheduleValidation(t *testing.T) {
	scenarios := map[string]func(grow func(*Common)) error{
		"churn": func(grow func(*Common)) error {
			cfg := DefaultChurn()
			grow(&cfg.Common)
			return assemble(&cfg)
		},
		"agg": func(grow func(*Common)) error {
			cfg := DefaultAgg()
			grow(&cfg.Common)
			return assemble(&cfg)
		},
		"share": func(grow func(*Common)) error {
			cfg := DefaultShare()
			grow(&cfg.Common)
			return assemble(&cfg)
		},
		"adapt": func(grow func(*Common)) error {
			cfg := DefaultAdapt()
			grow(&cfg.Common)
			return assemble(&cfg)
		},
	}
	cases := []struct {
		name string
		grow func(*Common)
		ok   bool
	}{
		{"two joins on a fitting cadence", func(c *Common) { c.GrowFrom, c.Workers, c.JoinEvery = c.Workers, c.Workers+2, 5 }, true},
		{"two joins spread evenly", func(c *Common) { c.GrowFrom, c.Workers = c.Workers, c.Workers+2 }, true},
		{"two joins that do not fit the run", func(c *Common) { c.GrowFrom, c.Workers, c.JoinEvery = c.Workers, c.Workers+2, c.Events }, false},
		{"more joins than events", func(c *Common) { c.GrowFrom, c.Workers = c.Workers, c.Workers+c.Events+1 }, false},
		{"GrowFrom == Workers", func(c *Common) { c.GrowFrom = c.Workers }, false},
		{"GrowFrom > Workers", func(c *Common) { c.GrowFrom = c.Workers + 1 }, false},
	}
	for name, scenario := range scenarios {
		for _, tc := range cases {
			err := scenario(tc.grow)
			if tc.ok && err != nil {
				t.Errorf("%s, %s: rejected: %v", name, tc.name, err)
			}
			if !tc.ok && err == nil {
				t.Errorf("%s, %s: accepted", name, tc.name)
			}
		}
	}
}

// assemble normalizes and builds the scenario, then tears the never-run
// deployment down again.
func assemble[R any](sc Scenario[R]) error {
	l, err := New(sc)
	if err != nil {
		return err
	}
	for _, t := range l.Tasks {
		t.Stop()
	}
	return nil
}
