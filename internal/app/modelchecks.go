package app

import (
	"fmt"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/offline"
	"reqsched/internal/registry"
	"reqsched/internal/workload"
)

// modelChecks pins the reusable-resources extension for cmd/verify: under
// hold=k service models the hold_squeeze construction forces the greedy
// router to exactly the factor-2 charging bound, the incremental offline
// optimum agrees with Kuhn's search over the full graph on hold x cap grids,
// and greedy's empirical ratio stays within the bound (which Baek-Wang
// sharpen in the windowless reusable model, arXiv 2304.03377).
func modelChecks(add func(name string, ok bool, format string, args ...interface{}), workers int) {
	greedy := func() core.Strategy {
		s, err := registry.NewStrategySpec("compose,router=greedy")
		if err != nil {
			panic(err) // the spec is a constant; resolution cannot fail
		}
		return s
	}

	// The construction serves one request per epoch under greedy while the
	// optimum serves two — the ratio is exactly 2 with no additive slack.
	for _, h := range []int{2, 4, 8} {
		c := adversary.HoldSqueeze(h, 30)
		res := core.Run(greedy(), c.Trace)
		opt, _ := offline.Solve(c.Trace, offline.Cardinality, workers)
		ok := res.Fulfilled > 0 && opt == 2*res.Fulfilled
		add(fmt.Sprintf("model: hold_squeeze hold=%d exactly 2", h), ok,
			"OPT %d vs greedy %d (charging bound %.0f, cf. arXiv 2304.03377)",
			opt, res.Fulfilled, c.Bound)
	}

	// The acceptance pin for the rolling ratio: the incremental OPT must equal
	// Kuhn's on the full, uncut graph in every hold x cap grid cell, and
	// greedy must sit within the factor-2 charging guarantee throughout.
	mismatch, cells := 0, 0
	worst := 0.0
	for _, h := range []int{1, 2, 4, 8} {
		for _, capc := range []int{1, 2, 3} {
			m := core.ServiceModel{Hold: h, Cap: capc}
			tr := workload.Reusable(workload.Config{N: 6, D: 5, Rounds: 80, Seed: int64(10*h + capc)}, m, 0.9)
			cells++
			want := offline.Optimum(tr)
			if _, kuhn := offline.OptimumMatching(tr); kuhn != want {
				mismatch++
			}
			res := core.Run(greedy(), tr)
			if res.Fulfilled > 0 {
				if r := float64(want) / float64(res.Fulfilled); r > worst {
					worst = r
				}
			}
		}
	}
	add("model: incremental OPT == Kuhn OPT", mismatch == 0,
		"%d/%d hold x cap grid cells mismatched", mismatch, cells)
	add("model: greedy within charging bound", worst <= 2+1e-9,
		"worst empirical ratio %.4f over the grid vs greedy UB 2 (Baek-Wang, arXiv 2304.03377)", worst)
}
