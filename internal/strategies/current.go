package strategies

import (
	"reqsched/internal/core"
	"reqsched/internal/matching"
	"reqsched/internal/policy"
)

// NewCurrent returns A_current: every round, a maximum matching is computed
// between all live unfulfilled requests and the n time slots of the *current*
// round only — no forward planning at all. Pending requests keep competing
// every round until served or expired. Competitive ratio between e/(e-1)
// (as d grows, Theorem 2.2) and 2 - 1/d (Theorem 3.3).
func NewCurrent() *policy.Composite { return canonical("A_current", NewCurrentRouter()) }

// CurrentRouter is the A_current round body: maximum matching into the
// current round's slots only, no forward planning.
type CurrentRouter struct{ sc roundScratch }

// NewCurrentRouter returns the current router.
func NewCurrentRouter() *CurrentRouter { return &CurrentRouter{} }

// Name implements policy.Router.
func (*CurrentRouter) Name() string { return "current" }

// Begin implements policy.Router.
func (*CurrentRouter) Begin(n, d int) {}

// Route implements policy.Router. A_current never pre-assigns, so every
// queued request is unassigned.
func (r *CurrentRouter) Route(ctx *core.RoundContext, queue []*core.Request) {
	sc := &r.sc
	wg := buildCurrentRoundGraph(sc, ctx.W, queue)
	m := sc.emptyMatching()
	order := sc.identOrder(len(queue))
	// Maximum matching with requests considered in queue order — ID order
	// under FCFS, so older requests (lower IDs) are matched first: the
	// implementation the Theorem 2.2 adversary steers group by group.
	sc.ms.ExtendFromLeft(wg.g, m, order)
	wg.apply(ctx.W, m)
}

// buildCurrentRoundGraph restricts the window graph to the current round's n
// slots: request li is adjacent to slot (alt, t) for each listed alternative.
// The graph is the scratch-owned one, reused across rounds.
func buildCurrentRoundGraph(sc *roundScratch, w *core.Window, reqs []*core.Request) *winGraph {
	wg := &sc.wg
	wg.reqs = reqs
	wg.n = w.N()
	wg.capc = w.Model().Cap
	wg.t = w.Round()
	wg.depth = w.Depth()
	if wg.g == nil {
		wg.g = matching.NewGraph(len(reqs), slots(w))
	} else {
		wg.g.Reset(len(reqs), slots(w))
	}
	for li, r := range reqs {
		for _, a := range r.Alts {
			if w.Free(a, wg.t) {
				base := wg.slotIdx(a, wg.t)
				for u := w.AssignedCount(a, wg.t); u < wg.capc; u++ {
					wg.g.AddEdge(li, base+u)
				}
			}
		}
	}
	return wg
}
