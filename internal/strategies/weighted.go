package strategies

import (
	"sort"

	"reqsched/internal/core"
	"reqsched/internal/matching"
)

// Weighted extension: requests carry weights (priority classes) and the
// objective becomes maximizing the total weight served. The paper's model is
// unweighted; these strategies are the natural weighted analogues of A_fix
// and A_eager, measured against the offline maximum profit
// (offline.MaxProfit).

// FixWeighted is A_fix with weight-aware admission: each round the new
// arrivals are considered heaviest-first (ties by ID) and matched into free
// slots with augmentation, never to be rescheduled. With uniform weights it
// coincides with a member of the A_fix class.
type FixWeighted struct{ sc roundScratch }

// NewFixWeighted returns the weighted A_fix variant.
func NewFixWeighted() *FixWeighted { return &FixWeighted{} }

// Name implements core.Strategy.
func (*FixWeighted) Name() string { return "A_fix_w" }

// Begin implements core.Strategy.
func (*FixWeighted) Begin(n, d int) {}

// Round implements core.Strategy.
func (f *FixWeighted) Round(ctx *core.RoundContext) {
	sc := &f.sc
	reqs := append(sc.reqs[:0], ctx.Arrivals...)
	sort.SliceStable(reqs, func(a, b int) bool {
		if reqs[a].Weight() != reqs[b].Weight() {
			return reqs[a].Weight() > reqs[b].Weight()
		}
		return reqs[a].ID < reqs[b].ID
	})
	sc.reqs = reqs
	wg := sc.buildGraph(ctx.W, reqs, true)
	sc.ms.ExtendFromLeft(wg.g, sc.emptyMatching(), sc.identOrder(len(reqs)))
	wg.apply(ctx.W, &sc.m)
}

// EagerWeighted recomputes, every round, the matching of maximum total
// weight over the whole known window (matching.MaxProfitMatching). Unlike
// A_eager it may *unschedule* a lighter request when a heavier one arrives —
// commitment is traded for profit. With uniform weights the per-round
// matching is maximum cardinality, so it behaves like an (unconstrained)
// member of the A_eager class.
type EagerWeighted struct{ sc roundScratch }

// NewEagerWeighted returns the weighted rescheduling strategy.
func NewEagerWeighted() *EagerWeighted { return &EagerWeighted{} }

// Name implements core.Strategy.
func (*EagerWeighted) Name() string { return "A_eager_w" }

// Begin implements core.Strategy.
func (*EagerWeighted) Begin(n, d int) {}

// Round implements core.Strategy.
func (e *EagerWeighted) Round(ctx *core.RoundContext) {
	reqs := ctx.Pending
	ctx.W.Reset()
	wg := e.sc.buildGraph(ctx.W, reqs, false)
	profit := make([]int64, len(reqs))
	for i, r := range reqs {
		profit[i] = int64(r.Weight())
	}
	m := matching.MaxProfitMatching(wg.g, profit)
	wg.apply(ctx.W, m)
}
