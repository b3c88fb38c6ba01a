package policy

import "reqsched/internal/core"

// FCFS serves requests in arrival order. On a queue already in ID order this
// is the identity under a stable sort, so Composite skips the sort and hands
// the router the engine's pending queue: requests processed in ID (arrival)
// order. Every canonical composition uses it.
type FCFS struct{}

// Name implements QueueOrder.
func (FCFS) Name() string { return "fcfs" }

// Less implements QueueOrder.
func (FCFS) Less(a, b *core.Request, _, _ float64, _ int) bool {
	return a.Arrive < b.Arrive
}

// SJF serves the tightest deadline window first. In the deadline model a
// request's window length D is its "job size": a small-D request must be
// served within a few rounds or it is lost, the way a short LLM request is
// cheap to finish but suffers most from waiting behind long ones. Under
// overload, FCFS lets wide-window heads of line starve tight-window arrivals
// — the head-of-line-blocking effect SJF relieves (see the pinned experiment
// in hol_test.go). Ties fall back to arrival order.
type SJF struct{}

// Name implements QueueOrder.
func (SJF) Name() string { return "sjf" }

// Less implements QueueOrder.
func (SJF) Less(a, b *core.Request, _, _ float64, _ int) bool {
	if a.D != b.D {
		return a.D < b.D
	}
	return a.Arrive < b.Arrive
}

// PriorityFCFS serves strictly by descending priority score, FCFS within a
// score class. Combined with the slo_age priority it implements aged
// SLO-class scheduling; with the weight priority, weighted precedence.
type PriorityFCFS struct{}

// Name implements QueueOrder.
func (PriorityFCFS) Name() string { return "priority_fcfs" }

// Less implements QueueOrder.
func (PriorityFCFS) Less(a, b *core.Request, pa, pb float64, _ int) bool {
	if pa != pb {
		return pa > pb
	}
	return a.Arrive < b.Arrive
}
