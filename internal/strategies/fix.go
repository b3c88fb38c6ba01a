package strategies

import (
	"reqsched/internal/core"
	"reqsched/internal/policy"
)

// NewFix returns A_fix: every round, the previously computed assignments are
// kept unchanged (no rescheduling, ever), and a maximum number of the
// requests injected this round is matched into the remaining free slots,
// yielding a maximal matching on G_t. Competitive ratio exactly 2 - 1/d
// (Theorems 2.1 and 3.3).
func NewFix() *policy.Composite { return canonical("A_fix", NewFixRouter()) }

// FixRouter is the A_fix round body: keep all previous assignments, match
// this round's arrivals maximally into the free slots.
type FixRouter struct{ sc roundScratch }

// NewFixRouter returns the fix router.
func NewFixRouter() *FixRouter { return &FixRouter{} }

// Name implements policy.Router.
func (*FixRouter) Name() string { return "fix" }

// Begin implements policy.Router.
func (*FixRouter) Begin(n, d int) {}

// Route implements policy.Router. Arrivals are identified by arrival round
// rather than taken from ctx.Arrivals so that a composed admission axis can
// filter and an order axis reorder the queue.
func (f *FixRouter) Route(ctx *core.RoundContext, queue []*core.Request) {
	sc := &f.sc
	// Candidates: this round's arrivals first (their count is maximized),
	// then any older unassigned requests (for maximality of the matching on
	// G_t; with no rescheduling their slots can normally never free up, but
	// the rule costs nothing and keeps the matching maximal by construction).
	reqs := sc.reqs[:0]
	for _, r := range queue {
		if r.Arrive == ctx.T {
			reqs = append(reqs, r)
		}
	}
	narr := len(reqs)
	for _, r := range queue {
		if r.Arrive < ctx.T && !ctx.W.Assigned(r) {
			reqs = append(reqs, r)
		}
	}
	sc.reqs = reqs
	wg := sc.buildGraph(ctx.W, reqs, true)
	m := sc.emptyMatching()
	order := sc.identOrder(len(reqs))
	// Augmenting in queue order with first-listed-alternative preference: the
	// deterministic member of the A_fix class. Arrivals come first in reqs,
	// so their matching is maximum before older requests are considered.
	sc.ms.ExtendFromLeft(wg.g, m, order[:narr])
	sc.ms.ExtendFromLeft(wg.g, m, order[narr:])
	wg.apply(ctx.W, m)
}

// NewFixBalance returns A_fix_balance: like A_fix it never reschedules, but
// among the admissible extensions it maximizes F = sum_j X_{t+j}(n+1)^(d-j) —
// lexicographically filling the earliest rounds first, which both serves
// requests as early as possible and balances load across resources.
// Competitive ratio between 3d/(2d+2) and 2 - 2/d for d > 3 (Theorems 2.3
// and 3.4).
func NewFixBalance() *policy.Composite {
	return canonical("A_fix_balance", NewFixBalanceRouter())
}

// FixBalanceRouter is the A_fix_balance round body: no rescheduling,
// F-maximal extension over the free slots.
type FixBalanceRouter struct{ sc roundScratch }

// NewFixBalanceRouter returns the fix_balance router.
func NewFixBalanceRouter() *FixBalanceRouter { return &FixBalanceRouter{} }

// Name implements policy.Router.
func (*FixBalanceRouter) Name() string { return "fix_balance" }

// Begin implements policy.Router.
func (*FixBalanceRouter) Begin(n, d int) {}

// Route implements policy.Router.
func (f *FixBalanceRouter) Route(ctx *core.RoundContext, queue []*core.Request) {
	sc := &f.sc
	reqs := sc.reqs[:0]
	for _, r := range queue {
		if !ctx.W.Assigned(r) {
			reqs = append(reqs, r)
		}
	}
	sc.reqs = reqs
	wg := sc.buildGraph(ctx.W, reqs, true)
	// The F-maximal extension over the free slots: matched slot sets form a
	// transversal matroid, so processing slots in ascending round order with
	// one augmenting search each yields the weight-greedy basis — maximum
	// cardinality with lexicographically maximal (X_t, ..., X_{t+d-1}).
	classOf, slotOrder := sc.roundClasses(wg.depth)
	m := sc.emptyMatching()
	sc.ms.ExtendFromRight(wg.g, m, slotOrder)
	// Serve the oldest requests in the current round (see eager.go); this is
	// the member Theorem 2.4's d=2 bound for A_fix_balance reasons about.
	sc.ms.PreferLowAtClass(wg.g, m, classOf, 0)
	wg.apply(ctx.W, m)
}
