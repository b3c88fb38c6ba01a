package strategies

import (
	"cmp"
	"slices"

	"reqsched/internal/core"
)

// edfPruneMin is the served-set size below which EDF never sweeps it.
const edfPruneMin = 64

// EDF implements the Earliest Deadline First reference strategy of
// Observations 3.1 and 3.2: every resource works independently, serving each
// round the queued request copy with the earliest deadline (ties by ID). A
// request with c alternatives enqueues a copy at each of them.
//
// In the *independent* variant (the analysis model of Observation 3.2) a
// resource does not learn that a sibling copy was already served: it still
// spends its round on the stale copy, wasting the slot. This makes EDF
// exactly c-competitive for c alternatives (2 for the paper's model). The
// *coordinated* variant (NewEDFCoordinated) skips served copies — a natural
// implementation improvement the paper's analysis does not need, kept here as
// an ablation.
type EDF struct {
	coordinated bool
	queues      [][]*core.Request
	// served maps each served request's ID to its deadline. An entry is
	// read only while a copy of its request is queued with deadline >= T,
	// so entries past their deadline are swept out whenever the map has
	// doubled since the last sweep: amortised O(1) per served request, and
	// the map stays within twice the live requests under endless traffic.
	served  map[int]int
	pruneAt int
}

// NewEDF returns the independent-copies EDF strategy.
func NewEDF() *EDF { return &EDF{} }

// NewEDFCoordinated returns the EDF variant that cancels sibling copies when
// a request is served.
func NewEDFCoordinated() *EDF { return &EDF{coordinated: true} }

// Name implements core.Strategy.
func (e *EDF) Name() string {
	if e.coordinated {
		return "EDF_coordinated"
	}
	return "EDF"
}

// Begin implements core.Strategy.
func (e *EDF) Begin(n, d int) {
	e.queues = make([][]*core.Request, n)
	e.served = make(map[int]int)
	e.pruneAt = edfPruneMin
}

// Round implements core.Strategy.
func (e *EDF) Round(ctx *core.RoundContext) {
	if len(e.served) >= e.pruneAt {
		for id, deadline := range e.served {
			if deadline < ctx.T {
				delete(e.served, id)
			}
		}
		e.pruneAt = max(2*len(e.served), edfPruneMin)
	}
	for _, r := range ctx.Arrivals {
		for _, a := range r.Alts {
			e.queues[a] = append(e.queues[a], r)
		}
	}
	for i := range e.queues {
		// A resource still holding an earlier service (hold > 1) skips the
		// round; under the unit model the current slot is always free here.
		if !ctx.W.Free(i, ctx.T) {
			continue
		}
		// Keep each queue in EDF order (deadline, then ID). Sorting the
		// whole queue each round is O(q log q); queues are short in all the
		// workloads of interest and clarity wins.
		q := e.queues[i]
		slices.SortStableFunc(q, byDeadlineThenID)
		for len(q) > 0 {
			r := q[0]
			if r.Deadline() < ctx.T {
				q = q[1:] // expired copy
				continue
			}
			if _, done := e.served[r.ID]; done {
				if e.coordinated {
					q = q[1:] // cancelled copy: try the next one
					continue
				}
				// Independent copies: the resource wastes this round
				// serving a request that was already fulfilled elsewhere.
				q = q[1:]
				break
			}
			// Serve r now.
			q = q[1:]
			ctx.W.Assign(r, i, ctx.T)
			e.served[r.ID] = r.Deadline()
			break
		}
		e.queues[i] = q
	}
}

// byDeadlineThenID is EDF's queue order: deadline, then ID.
func byDeadlineThenID(a, b *core.Request) int {
	if c := cmp.Compare(a.Deadline(), b.Deadline()); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}
