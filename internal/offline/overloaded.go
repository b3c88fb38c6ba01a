package offline

import (
	"sort"

	"reqsched/internal/core"
)

// This file makes the "overloaded resource set" accounting of Theorem 3.3's
// proof executable. For a round t with failed requests, the proof builds a
// set S of overloaded resources: start with the alternatives of the failed
// requests injected at t, then repeatedly add the alternatives of requests
// injected at t that are *scheduled* at resources already in S, until the
// set is closed. The proof then argues (for A_fix-style maximal strategies):
//
//  1. for every resource in S, the last window slot s_{i,t+d-1} serves a
//     request injected at t (otherwise the maximality rule is violated);
//  2. at most (d-1)|S| of the failed requests can be served even by the
//     optimum, which caps the competitive ratio at 2 - 1/d.
//
// OverloadedSets computes S per injection round from an actual execution;
// the tests verify both claims on random and adversarial A_fix runs.

// Overload describes one injection round's overloaded-set accounting.
type Overload struct {
	// Round is the injection round t.
	Round int
	// Failed lists the requests injected at t that the schedule never
	// served, in ID order.
	Failed []*core.Request
	// Resources is the closed overloaded resource set S, ascending.
	Resources []int
	// ScheduledAt counts, per resource of S, the requests injected at t
	// that the schedule served on that resource (parallel to Resources).
	ScheduledAt []int
}

// OverloadedSets computes the per-round overload accounting of a schedule.
// Rounds whose injected requests were all served are omitted.
func OverloadedSets(tr *core.Trace, log []core.Fulfillment) []Overload {
	served := make(map[int]*core.Fulfillment, len(log))
	for i := range log {
		served[log[i].Req.ID] = &log[i]
	}
	var out []Overload
	for t, injected := range tr.Arrivals {
		var failed []*core.Request
		for i := range injected {
			if served[injected[i].ID] == nil {
				failed = append(failed, &injected[i])
			}
		}
		if len(failed) == 0 {
			continue
		}
		inS := make(map[int]bool)
		for _, r := range failed {
			for _, a := range r.Alts {
				inS[a] = true
			}
		}
		// Close the set: alternatives of same-round requests served inside S
		// join S.
		for changed := true; changed; {
			changed = false
			for i := range injected {
				f := served[injected[i].ID]
				if f == nil || !inS[f.Res] {
					continue
				}
				for _, a := range injected[i].Alts {
					if !inS[a] {
						inS[a] = true
						changed = true
					}
				}
			}
		}
		ov := Overload{Round: t, Failed: failed}
		for res := range inS {
			ov.Resources = append(ov.Resources, res)
		}
		sort.Ints(ov.Resources)
		ov.ScheduledAt = make([]int, len(ov.Resources))
		idx := make(map[int]int, len(ov.Resources))
		for i, res := range ov.Resources {
			idx[res] = i
		}
		for i := range injected {
			if f := served[injected[i].ID]; f != nil {
				if j, ok := idx[f.Res]; ok {
					ov.ScheduledAt[j]++
				}
			}
		}
		out = append(out, ov)
	}
	return out
}
