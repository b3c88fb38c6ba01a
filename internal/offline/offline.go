// Package offline computes the optimal offline schedule of a trace: the
// maximum-cardinality matching in the paper's bipartite graph G = (R ∪ S, E)
// between requests and time slots (Section 1.2). Competitive ratios are
// measured against this optimum.
package offline

import (
	"reqsched/internal/core"
	"reqsched/internal/matching"
)

// SlotIndex maps the slot of resource res at round t to its right-vertex
// index in the request/slot graph of a trace over n resources (unit service
// model; see epochSlot for the general form).
func SlotIndex(n, res, t int) int { return t*n + res }

// Offline optima under a general core.ServiceModel are computed in the *epoch
// relaxation*: time is cut into epochs of Hold rounds, each (epoch, resource)
// pair carries Cap capacity-unit slots, and a request is admissible in every
// epoch its deadline window touches. This upper-bounds every engine-feasible
// schedule — service starts on one capacity unit are at least Hold rounds
// apart, and floor((t+Hold)/Hold) = floor(t/Hold)+1, so the starts of any
// feasible schedule map injectively to distinct epoch slots. At hold=1 the
// relaxation is exact for any capacity (slots of one round are independent),
// and at the unit model the graph below is the legacy request/slot graph
// vertex for vertex, edge for edge.

// epochSlot maps capacity unit u of resource res in epoch e to its
// right-vertex index.
func epochSlot(n, capc, res, e, u int) int { return (e*n+res)*capc + u }

// epochSlotOf inverts epochSlot, dropping the (interchangeable) unit.
func epochSlotOf(n, capc, idx int) (res, e int) { return (idx / capc) % n, idx / (n * capc) }

// epochCount returns the number of hold-round epochs up to tr's horizon.
func epochCount(tr *core.Trace, hold int) int {
	if h := tr.Horizon(); h > 0 {
		return (h-1)/hold + 1
	}
	return 0
}

// BuildGraph constructs the full bipartite graph of a trace: left vertices
// are requests in ID order; right vertices are all (epoch, resource, unit)
// slots up to the trace horizon — under the unit model, exactly the
// (resource, round) slots. Each request is adjacent to the slots of its
// alternatives (in listed order) during its deadline window, earliest epoch
// first — the same deterministic edge order the online strategies use.
func BuildGraph(tr *core.Trace) *matching.Graph {
	m := tr.Model.Norm()
	g := matching.NewGraph(tr.NumRequests(), epochCount(tr, m.Hold)*tr.N*m.Cap)
	for _, r := range tr.Requests() {
		for _, a := range r.Alts {
			for e := r.Arrive / m.Hold; e <= r.Deadline()/m.Hold; e++ {
				for u := 0; u < m.Cap; u++ {
					g.AddEdge(r.ID, epochSlot(tr.N, m.Cap, a, e, u))
				}
			}
		}
	}
	return g
}

// Optimum returns the number of requests an optimal offline algorithm
// fulfills: the maximum matching cardinality of the trace graph. It is the
// package's one maximum-cardinality solver: the requests are fed in arrival
// order through an IncrementalOpt — one augmenting-path search per request,
// the pass the serve daemon's rolling ratio runs — sealed at core.Segmenter's
// clean cuts, so right-vertex rows restart at each new base and memory stays
// proportional to the widest open window, not the horizon. Maximum matching
// decomposes over the independent pieces, so the seals do not change the
// value. Solve(tr, Cardinality, w), OptimumStream and ratio all answer
// through it.
func Optimum(tr *core.Trace) int {
	return NewIncrementalOptModel(tr.N, tr.Model).feed(tr)
}

// OptimumMatching returns one optimal offline schedule as an explicit
// matching plus its cardinality, computed by Kuhn's augmenting search over
// the full graph — a different solver from Optimum, so comparing the two
// sizes checks the incremental pass.
func OptimumMatching(tr *core.Trace) (*matching.Matching, int) {
	m := matching.Kuhn(BuildGraph(tr))
	return m, m.Size()
}

// OptimumSchedule converts an optimal matching into a fulfillment log,
// suitable for core.ValidateLog and for diffing against an online schedule.
// Under hold > 1 the log is the epoch relaxation's schedule — each service is
// stamped at its epoch start (clamped to the request's arrival) and the log
// is an upper bound, not necessarily engine-feasible round for round. It
// stays monolithic as a test oracle; Solve returns no log for Cardinality.
func OptimumSchedule(tr *core.Trace) []core.Fulfillment {
	sm := tr.Model.Norm()
	m, _ := OptimumMatching(tr)
	reqs := tr.Requests()
	var log []core.Fulfillment
	for l, r := range m.L2R {
		if r == matching.None {
			continue
		}
		res, e := epochSlotOf(tr.N, sm.Cap, int(r))
		t := e * sm.Hold
		if t < reqs[l].Arrive {
			t = reqs[l].Arrive
		}
		log = append(log, core.Fulfillment{Req: reqs[l], Res: res, Round: t})
	}
	return log
}

// OptimumMinLatency returns an optimal offline schedule that, among all
// maximum-cardinality schedules, minimizes the total service latency (sum of
// service round minus arrival round), computed by min-cost max-flow charging
// each matched pair its true latency: −arrive on the request side, the slot
// round on the slot side. Charging both sides makes the minimized value the
// latency itself — well-defined however ties between equally cheap schedules
// break, which is what lets Solve(tr, MinLatency, w) pin against it exactly.
// It stays monolithic as that test oracle.
// Useful as the latency baseline for the examples: the online strategies'
// mean latency can be compared against the best any schedule of maximum
// throughput could do.
// Under a general service model latency is measured in the epoch relaxation:
// a request arriving in epoch eA served in epoch e costs (e−eA)·Hold rounds —
// per-vertex decomposable (−eA·Hold on the request side, e·Hold on the slot
// side), never negative, and exactly (service round − arrival round) at the
// unit model.
func OptimumMinLatency(tr *core.Trace) ([]core.Fulfillment, int) {
	sm := tr.Model.Norm()
	g := BuildGraph(tr)
	reqs := tr.Requests()
	arrive := make([]int64, len(reqs))
	for i, r := range reqs {
		arrive[i] = -int64(r.Arrive / sm.Hold * sm.Hold)
	}
	costs := make([]int64, g.NRight())
	for idx := range costs {
		_, e := epochSlotOf(tr.N, sm.Cap, idx)
		costs[idx] = int64(e * sm.Hold)
	}
	m := matching.MinCostMatchingLR(g, arrive, costs)
	var log []core.Fulfillment
	latency := 0
	for l, r := range m.L2R {
		if r == matching.None {
			continue
		}
		res, e := epochSlotOf(tr.N, sm.Cap, int(r))
		t := e * sm.Hold
		latency += t - reqs[l].Arrive/sm.Hold*sm.Hold
		if t < reqs[l].Arrive {
			t = reqs[l].Arrive
		}
		log = append(log, core.Fulfillment{Req: reqs[l], Res: res, Round: t})
	}
	return log, latency
}

// MaxProfit returns the maximum total weight an offline schedule can serve —
// the optimum of the weighted extension (equals Optimum on unweighted
// traces). It stays monolithic as the test oracle of Solve(tr, Profit, w).
func MaxProfit(tr *core.Trace) int {
	g := BuildGraph(tr)
	reqs := tr.Requests()
	profit := make([]int64, len(reqs))
	for i, r := range reqs {
		profit[i] = int64(r.Weight())
	}
	m := matching.MaxProfitMatching(g, profit)
	return int(matching.ProfitOf(m, profit))
}

// EarliestDeadlineSchedule serves each trace greedily: in every round, every
// resource serves, among the live requests that name it and are not yet
// served this round, the one with the earliest deadline (ties by ID), its own
// copy bookkeeping ignored. For single-alternative traces this is the EDF
// strategy of Observation 3.1 and returns the optimum. The function returns
// the number of requests fulfilled.
//
// Resources are scanned in index order within a round; because a request may
// name several resources, a request already taken by a lower-indexed resource
// this round is skipped by higher-indexed ones.
func EarliestDeadlineSchedule(tr *core.Trace) int {
	if !tr.Model.IsUnit() {
		panic("offline: EarliestDeadlineSchedule supports the unit service model only")
	}
	horizon := tr.Horizon()
	// perResource[i] holds live request pointers naming resource i. Request
	// IDs are dense (0..NumRequests-1), so served is a flat bitmap rather
	// than a map — the same alloc-regression class the engine scratch fixed.
	perResource := make([][]*core.Request, tr.N)
	served := make([]bool, tr.NumRequests())
	fulfilled := 0
	for t := 0; t < horizon; t++ {
		if t < len(tr.Arrivals) {
			for i := range tr.Arrivals[t] {
				r := &tr.Arrivals[t][i]
				for _, a := range r.Alts {
					perResource[a] = append(perResource[a], r)
				}
			}
		}
		for i := 0; i < tr.N; i++ {
			q := perResource[i]
			live := q[:0]
			var pick *core.Request
			for _, r := range q {
				if served[r.ID] || r.Deadline() < t {
					continue
				}
				live = append(live, r)
				if pick == nil || r.Deadline() < pick.Deadline() ||
					(r.Deadline() == pick.Deadline() && r.ID < pick.ID) {
					pick = r
				}
			}
			perResource[i] = live
			if pick != nil {
				served[pick.ID] = true
				fulfilled++
			}
		}
	}
	return fulfilled
}
