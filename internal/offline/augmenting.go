package offline

import (
	"reqsched/internal/core"
	"reqsched/internal/matching"
)

// This file implements the analysis device of the paper's upper-bound proofs
// (Section 3): compare the online schedule with a fixed optimal schedule via
// the symmetric difference of their matchings and classify the augmenting
// paths by *order* — the number of requests on the path. Theorem 3.3's proof
// starts from "no request that fails in A_fix is the beginning of an
// augmenting path of order 1"; Theorem 3.5's from "every augmenting path is
// of order at least 3" for A_eager. AugmentingOrders makes those statements
// checkable on real executions.

// logMatching converts a fulfillment log into a matching on the trace's full
// request/slot graph (BuildGraph). Each fulfillment takes the next free
// capacity unit of its resource in the epoch of its round: an engine
// schedule starts at most Cap services per resource per epoch (see the
// epoch relaxation above BuildGraph), so the units map injectively.
func logMatching(tr *core.Trace, log []core.Fulfillment) *matching.Matching {
	sm := tr.Model.Norm()
	epochs := epochCount(tr, sm.Hold)
	m := matching.NewMatching(tr.NumRequests(), epochs*tr.N*sm.Cap)
	used := make([]int, epochs*tr.N) // units taken per (epoch, resource)
	for _, f := range log {
		e := f.Round / sm.Hold
		k := e*tr.N + f.Res
		m.Match(f.Req.ID, epochSlot(tr.N, sm.Cap, f.Res, e, used[k]))
		used[k]++
	}
	return m
}

// AugmentingOrders diffs the online schedule against one optimal schedule
// and returns a histogram: orders[k] is the number of augmenting paths (for
// the online matching) containing exactly k requests. The total loss of the
// online algorithm against this optimum equals the total number of
// augmenting paths (sum over the histogram).
func AugmentingOrders(tr *core.Trace, log []core.Fulfillment) map[int]int {
	alg := logMatching(tr, log)
	opt, _ := OptimumMatching(tr)
	comps := matching.SymmetricDifference(alg, opt)
	orders := make(map[int]int)
	for i := range comps {
		c := &comps[i]
		if !matching.AugmentingFor(c, alg) {
			continue
		}
		requests := 0
		for _, isLeft := range c.Left {
			if isLeft {
				requests++
			}
		}
		orders[requests]++
	}
	return orders
}
