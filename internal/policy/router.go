package policy

import "reqsched/internal/core"

// The paper-strategy routers (fix, current, fix_balance, eager, balance)
// live in internal/strategies next to the fused bodies they share code with;
// this file holds the two matching-free baselines. Both assign each request
// to its first free slot (alternatives in listed order, earliest round
// first) and never reschedule — what distinguishes them is who gets to pick
// first, i.e. the queue order, which makes greedy the cleanest vehicle for
// order-axis experiments such as SJF vs FCFS.

// GreedyRouter assigns every unassigned queued request — not just this
// round's arrivals — to its first free slot each round, in queue order.
// Unlike first_fit it retries: a request that found no slot competes again
// next round, so the queue order decides who claims the slots the advancing
// window opens up.
type GreedyRouter struct{}

// Name implements Router.
func (GreedyRouter) Name() string { return "greedy" }

// Begin implements Router.
func (GreedyRouter) Begin(int, int) {}

// SupportsModel implements core.ModelSupporter: the scan through Window.Free
// is occupancy-aware, so any service model is supported — greedy is the
// Baek–Wang vehicle for the reusable-resources experiments.
func (GreedyRouter) SupportsModel(core.ServiceModel) error { return nil }

// Route implements Router.
func (GreedyRouter) Route(ctx *core.RoundContext, queue []*core.Request) {
	for _, r := range queue {
		if ctx.W.Assigned(r) {
			continue
		}
		if res, round, ok := ctx.W.FirstFreeSlot(r); ok {
			ctx.W.Assign(r, res, round)
		}
	}
}

// FirstFitRouter is the strategies.FirstFit baseline as a router: each of
// this round's arrivals goes to its first free slot, misses are never
// retried. Composed with fcfs/always/constant it reproduces first_fit
// byte-identically.
type FirstFitRouter struct{}

// Name implements Router.
func (FirstFitRouter) Name() string { return "first_fit" }

// Begin implements Router.
func (FirstFitRouter) Begin(int, int) {}

// SupportsModel implements core.ModelSupporter: first-fit scans free slots.
func (FirstFitRouter) SupportsModel(core.ServiceModel) error { return nil }

// Route implements Router.
func (FirstFitRouter) Route(ctx *core.RoundContext, queue []*core.Request) {
	for _, r := range queue {
		if r.Arrive != ctx.T {
			continue
		}
		if res, round, ok := ctx.W.FirstFreeSlot(r); ok {
			ctx.W.Assign(r, res, round)
		}
	}
}
