package strategies

import (
	"reqsched/internal/core"
	"reqsched/internal/matching"
	"reqsched/internal/policy"
)

// NewEager returns A_eager: every round it recomputes a maximum matching over
// the whole known subgraph G_t subject to (1) the number of requests served
// in the current round is maximal and (2) every previously scheduled request
// remains scheduled (it may move to a different slot). Competitive ratio
// between 4/3 and (3d-2)/(2d-1) (Theorems 2.4 and 3.5).
//
// Implementation: snapshot the inherited schedule, reset the window, compute
// the slot-side weight-class greedy with two classes ("current round" before
// "everything later") — a maximum matching maximizing current-round service —
// then restore coverage of previously scheduled requests via the constructive
// Mendelsohn–Dulmage merge, which keeps the matched slot set (and hence both
// optimality properties) intact.
func NewEager() *policy.Composite { return canonical("A_eager", NewEagerRouter()) }

// EagerRouter is the A_eager round body: recompute a maximum matching
// maximizing current-round service, keeping scheduled requests scheduled.
type EagerRouter struct{ sc roundScratch }

// NewEagerRouter returns the eager router.
func NewEagerRouter() *EagerRouter { return &EagerRouter{} }

// Name implements policy.Router.
func (*EagerRouter) Name() string { return "eager" }

// Begin implements policy.Router.
func (*EagerRouter) Begin(n, d int) {}

// Route implements policy.Router.
func (r *EagerRouter) Route(ctx *core.RoundContext, queue []*core.Request) {
	routeReschedule(ctx, queue, 2, &r.sc)
}

// NewBalance returns A_balance: like A_eager it recomputes over the whole
// subgraph and keeps previously scheduled requests scheduled, but it picks
// the maximum matching maximizing F = sum_j X_{t+j}(n+1)^(d-j), i.e. it fills
// rounds lexicographically from the current one outward. The paper's best
// simple strategy: ratio between (5d+2)/(4d+1) and 6(d-1)/(4d-3)
// (Theorems 2.5 and 3.6).
func NewBalance() *policy.Composite { return canonical("A_balance", NewBalanceRouter()) }

// BalanceRouter is the A_balance round body: recompute the F-maximal
// maximum matching, keeping scheduled requests scheduled.
type BalanceRouter struct{ sc roundScratch }

// NewBalanceRouter returns the balance router.
func NewBalanceRouter() *BalanceRouter { return &BalanceRouter{} }

// Name implements policy.Router.
func (*BalanceRouter) Name() string { return "balance" }

// Begin implements policy.Router.
func (*BalanceRouter) Begin(n, d int) {}

// Route implements policy.Router.
func (r *BalanceRouter) Route(ctx *core.RoundContext, queue []*core.Request) {
	routeReschedule(ctx, queue, 0, &r.sc)
}

// routeReschedule is the shared A_eager / A_balance round body. maxClasses
// caps the slot weight classes: 2 for A_eager (current round vs later), 0
// for A_balance (0 means "one class per window round": full lexicographic
// F). All graph and matching storage comes from sc and is reused across
// rounds. The queue order becomes the left-vertex order of the
// matching graph, so it steers both the augmenting searches and the
// PreferLowAtClass exchange (which requests are served in the current
// round).
func routeReschedule(ctx *core.RoundContext, queue []*core.Request, maxClasses int, sc *roundScratch) {
	reqs := queue
	covered := sc.coverMatching(ctx.W, reqs)
	ctx.W.Reset()
	wg := sc.buildGraph(ctx.W, reqs, false)
	if maxClasses <= 0 {
		maxClasses = wg.depth
	}
	classOf, slotOrder := sc.roundClasses(maxClasses)
	m := sc.emptyMatching()
	sc.ms.ExtendFromRight(wg.g, m, slotOrder)
	if covered {
		matching.CoverLeft(wg.g, m, &sc.cover)
	}
	// Among the admissible matchings, serve the oldest pending requests in
	// the current round — the member of the strategy class the lower-bound
	// proofs (Theorems 2.4, 2.5) describe. The exchange preserves
	// cardinality, the per-class slot counts, and scheduled requests.
	sc.ms.PreferLowAtClass(wg.g, m, classOf, 0)
	wg.apply(ctx.W, m)
}
