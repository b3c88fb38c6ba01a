package registry

import (
	"testing"

	"reqsched/internal/core"
)

// TestWorkloadsValidateInsteadOfPanicking runs every registered workload at
// its schema minimums, at the minimums with arrivals switched on, at n = 1
// and at c = n+1. Each run must return either a validation error or a trace:
// a combination the generator cannot handle belongs in the component's
// Check, where every frontend reports it as a one-line error.
func TestWorkloadsValidateInsteadOfPanicking(t *testing.T) {
	for _, c := range All(KindWorkload) {
		mins := Params{}
		for _, sp := range c.Params {
			if sp.Min == nil {
				continue
			}
			if sp.Type == Int {
				mins[sp.Name] = IntVal(int64(*sp.Min))
			} else {
				mins[sp.Name] = FloatVal(*sp.Min)
			}
		}
		busy := mins.Clone()
		busy["rounds"], busy["rate"] = IntVal(12), FloatVal(3)
		variants := map[string]Params{
			"minimums":           mins,
			"minimums, arrivals": busy,
			"n=1":                {"n": IntVal(1), "rate": FloatVal(3)},
		}
		if _, ok := c.param("c"); ok {
			variants["c=n+1"] = Params{"n": IntVal(4), "c": IntVal(5), "rate": FloatVal(3)}
		}
		for label, p := range variants {
			tr, err, panicked := generateRecovered(c.Name, p)
			switch {
			case panicked != nil:
				t.Errorf("%s at %s %v: panicked instead of failing validation: %v", c.Name, label, p, panicked)
			case err == nil && tr == nil:
				t.Errorf("%s at %s %v: no trace and no error", c.Name, label, p)
			}
		}
	}
}

// generateRecovered is GenerateWorkload with a panic recovered and returned.
func generateRecovered(name string, p Params) (tr *core.Trace, err error, panicked any) {
	defer func() { panicked = recover() }()
	tr, err = GenerateWorkload(name, p)
	return tr, err, nil
}
