// Package strategies implements the paper's global online scheduling
// strategies (Section 1.3): A_fix, A_current, A_fix_balance, A_eager,
// A_balance, the EDF reference strategies of Observations 3.1/3.2, and two
// trivial baselines.
//
// The paper defines each strategy as a *class* of algorithms ("choose any
// maximal/maximum matching such that ..."); its lower bounds are existential
// ("can be implemented in a way that ..."). This package pins one
// deterministic member of each class: requests are processed in ID (arrival)
// order, alternatives in their listed order, slots in ascending round order,
// and the matching subroutines of internal/matching inherit those orders. The
// adversarial constructions of internal/adversary choose arrival order and
// alternative listing so that this fixed implementation realizes exactly the
// executions the lower-bound proofs describe, while the upper bounds of
// Section 3 hold for every member of the class — and are property-tested
// against this one.
//
// A_fix, A_current, A_fix_balance, A_eager, A_balance and first_fit are each
// one policy.Router (FixRouter, ..., policy.FirstFitRouter) run through its
// canonical policy.Composite: FCFS order, constant priority, admit every
// arrival. The composite hands the router the engine's pending queue
// unchanged, so the router sees requests in ID order.
package strategies

import "reqsched/internal/policy"

// canonical composes router r with FCFS order, constant priority and
// admit-all under the display name name: the paper's model, in which every
// arrival is admitted and the router sees the pending queue in ID order.
func canonical(name string, r policy.Router) *policy.Composite {
	return policy.NewComposite(name, r, policy.FCFS{}, policy.ConstantPriority{}, policy.AdmitAll{})
}
