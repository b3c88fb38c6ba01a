// Segmented offline optima. Maximum matching — weighted or min-cost —
// decomposes exactly over the connected components of the request/slot graph
// G = (R ∪ S, E): no augmenting or profit-improving path crosses between
// components, so the optimum of a trace is the sum of the optima of its
// independent pieces. Long traces whose deadline windows do not all overlap
// split at quiet round boundaries into time segments that the weighted
// objectives solve concurrently; the cardinality optimum needs no pool, since
// the incremental pass (Optimum) already seals at the same cuts.
package offline

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"reqsched/internal/core"
	"reqsched/internal/matching"
)

// Segment is one independent piece of a trace's request/slot graph: the
// requests Reqs, every one of whose deadline windows lies within rounds
// [Lo, Hi]. No request outside the segment competes for a slot inside it, so
// its maximum matching can be computed in isolation and summed.
type Segment struct {
	// Lo and Hi bound the segment's rounds, inclusive.
	Lo, Hi int
	// Reqs are the segment's requests, in ID order.
	Reqs []*core.Request
}

// SegmentTrace cuts tr at every clean cut of core.Segmenter: a round
// boundary no request's deadline window crosses, epoch-aligned under hold >
// 1. Arrivals are stored in round order, so one pass finds all clean cuts in
// O(requests + horizon). Traces with permanently overlapping windows yield a
// single segment; Segments then falls back to components.
func SegmentTrace(tr *core.Trace) []Segment {
	cut := core.NewSegmenter(tr.Model)
	var segs []Segment
	var cur []*core.Request
	lo := 0
	for t := range tr.Arrivals {
		rs := tr.Arrivals[t]
		if len(rs) == 0 {
			continue
		}
		if hi, ok := cut.Cut(t); ok {
			segs = append(segs, Segment{Lo: lo, Hi: hi, Reqs: cur})
			cur = nil
		}
		if len(cur) == 0 {
			lo = t
		}
		for i := range rs {
			r := &rs[i]
			cur = append(cur, r)
			cut.Add(r.Deadline())
		}
	}
	if hi, ok := cut.Close(); ok {
		segs = append(segs, Segment{Lo: lo, Hi: hi, Reqs: cur})
	}
	return segs
}

// components decomposes tr into the connected components of its request/slot
// graph with a union-find over slots — the exact decomposition even when
// deadline windows overlap everywhere and no clean time cut exists (e.g.
// resource-disjoint request populations). The union-find runs over (epoch,
// resource) slots — under the unit model, exactly the (round, resource) slots;
// the capacity units of one slot are interchangeable and never split across
// components. Components are returned in order of their lowest request ID;
// each component's Lo/Hi bound its requests' windows, though components may
// overlap in time.
func components(tr *core.Trace) []Segment {
	n := tr.N
	hold := tr.Model.Norm().Hold
	parent := make([]int32, epochCount(tr, hold)*n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	reqs := tr.Requests()
	for _, r := range reqs {
		first := int32(SlotIndex(n, r.Alts[0], r.Arrive/hold))
		lo, hi := r.Arrive/hold, r.Deadline()/hold
		for _, a := range r.Alts {
			for e := lo; e <= hi; e++ {
				union(first, int32(SlotIndex(n, a, e)))
			}
		}
	}
	// Group requests by component root, components ordered by first request.
	index := make(map[int32]int)
	var segs []Segment
	for _, r := range reqs {
		root := find(int32(SlotIndex(n, r.Alts[0], r.Arrive/hold)))
		i, ok := index[root]
		if !ok {
			i = len(segs)
			index[root] = i
			segs = append(segs, Segment{Lo: r.Arrive, Hi: r.Deadline()})
		}
		seg := &segs[i]
		seg.Reqs = append(seg.Reqs, r)
		if r.Arrive < seg.Lo {
			seg.Lo = r.Arrive
		}
		if dl := r.Deadline(); dl > seg.Hi {
			seg.Hi = dl
		}
	}
	return segs
}

// segSolver is the per-worker scratch of the segmented solvers: the graph
// reused across every segment a worker claims, plus the buffers the weighted
// objectives need (per-request profits, per-slot absolute coordinates).
// Buffers grow monotonically to the largest segment seen, so steady-state
// allocation is per worker, not per segment. A segSolver is not safe for
// concurrent use — give each goroutine its own.
type segSolver struct {
	g       matching.Graph
	slotIDs map[int]int32
	profit  []int64 // per-left-vertex weights (MaxProfit) or -arrive (min-latency)
	cost    []int64 // per-right-vertex absolute slot round (min-latency)
	absRes  []int32 // per-right-vertex absolute resource index
	absT    []int32 // per-right-vertex absolute round
}

func newSegSolver() *segSolver { return &segSolver{slotIDs: make(map[int]int32)} }

// space is the slot geometry a segment is solved in: n resources under a
// normalized service model. Under the unit model (capc=1, hold=1) every index
// computation below reduces literally to the legacy round-slot arithmetic.
type space struct {
	n, capc, hold int
}

func spaceOf(tr *core.Trace) space {
	m := tr.Model.Norm()
	return space{n: tr.N, capc: m.Cap, hold: m.Hold}
}

// build constructs the segment's bipartite graph into the solver's reusable
// storage. Right vertices are the segment's (epoch, resource, unit) slots —
// under the unit model, the (round, resource) slots: remapped arithmetically
// into the [Lo, Hi] × n × cap rectangle when the segment covers it densely, or
// through first-seen compact numbering when the segment is sparse in its span
// (union-find components interleaved with others), so a component never pays
// for rounds it does not touch. When slotMeta is set, absRes/absT record each
// right vertex's absolute resource and epoch-start round — the inverse mapping
// the min-latency objective needs for costs and fulfillment logs. Objective
// values (profit, min latency) do not depend on the remapping or the edge
// order, so sums over segments equal the monolithic solvers exactly.
func (ss *segSolver) build(sp space, seg Segment, slotMeta bool) {
	n, capc, hold := sp.n, sp.capc, sp.hold
	edges := 0
	for _, r := range seg.Reqs {
		edges += len(r.Alts) * (r.Deadline()/hold - r.Arrive/hold + 1) * capc
	}
	g := &ss.g
	eSegLo, eSegHi := seg.Lo/hold, seg.Hi/hold
	if rect := (eSegHi - eSegLo + 1) * n * capc; rect <= 4*edges {
		g.Reset(len(seg.Reqs), rect)
		for l, r := range seg.Reqs {
			lo, hi := r.Arrive/hold, r.Deadline()/hold
			for _, a := range r.Alts {
				for e := lo; e <= hi; e++ {
					for u := 0; u < capc; u++ {
						g.AddEdge(l, ((e-eSegLo)*n+a)*capc+u)
					}
				}
			}
		}
		if slotMeta {
			ss.absRes = growInt32(ss.absRes, rect)
			ss.absT = growInt32(ss.absT, rect)
			for idx := 0; idx < rect; idx++ {
				ss.absRes[idx] = int32((idx / capc) % n)
				ss.absT[idx] = int32((eSegLo + idx/(n*capc)) * hold)
			}
		}
	} else {
		clear(ss.slotIDs)
		nRight := 0
		for _, r := range seg.Reqs {
			lo, hi := r.Arrive/hold, r.Deadline()/hold
			for _, a := range r.Alts {
				for e := lo; e <= hi; e++ {
					s := SlotIndex(n, a, e)
					if _, ok := ss.slotIDs[s]; !ok {
						ss.slotIDs[s] = int32(nRight)
						nRight += capc
					}
				}
			}
		}
		g.Reset(len(seg.Reqs), nRight)
		if slotMeta {
			ss.absRes = growInt32(ss.absRes, nRight)
			ss.absT = growInt32(ss.absT, nRight)
		}
		for l, r := range seg.Reqs {
			lo, hi := r.Arrive/hold, r.Deadline()/hold
			for _, a := range r.Alts {
				for e := lo; e <= hi; e++ {
					idx := ss.slotIDs[SlotIndex(n, a, e)]
					for u := int32(0); u < int32(capc); u++ {
						g.AddEdge(l, int(idx+u))
						if slotMeta {
							ss.absRes[idx+u] = int32(a)
							ss.absT[idx+u] = int32(e * hold)
						}
					}
				}
			}
		}
	}
}

// growInt32 returns s with length at least n, reusing capacity.
func growInt32(s []int32, n int) []int32 {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]int32, n)
}

// growInt64 returns s with length at least n, reusing capacity.
func growInt64(s []int64, n int) []int64 {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]int64, n)
}

// maxProfit computes the maximum total weight an offline schedule can serve
// within one segment (the weighted objective's optimum for the piece).
func (ss *segSolver) maxProfit(sp space, seg Segment) int64 {
	ss.build(sp, seg, false)
	ss.profit = growInt64(ss.profit, len(seg.Reqs))
	for i, r := range seg.Reqs {
		ss.profit[i] = int64(r.Weight())
	}
	m := matching.MaxProfitMatching(&ss.g, ss.profit[:len(seg.Reqs)])
	return matching.ProfitOf(m, ss.profit[:len(seg.Reqs)])
}

// minLatency computes a maximum-cardinality schedule of one segment that
// minimizes total service latency (sum of service round minus arrival round),
// appending its fulfillments — in absolute rounds — to log. It returns the
// extended log and the segment's latency. The minimum latency of a segment is
// a well-defined optimum value, so the sum over independent segments equals
// the monolithic OptimumMinLatency latency exactly, whichever of the equally
// cheap schedules either solver picks.
func (ss *segSolver) minLatency(sp space, seg Segment, log []core.Fulfillment) ([]core.Fulfillment, int64) {
	ss.build(sp, seg, true)
	nl, nr := ss.g.NLeft(), ss.g.NRight()
	ss.profit = growInt64(ss.profit, nl)
	for i, r := range seg.Reqs {
		ss.profit[i] = -int64(r.Arrive / sp.hold * sp.hold)
	}
	ss.cost = growInt64(ss.cost, nr)
	for idx := 0; idx < nr; idx++ {
		ss.cost[idx] = int64(ss.absT[idx])
	}
	m := matching.MinCostMatchingLR(&ss.g, ss.profit[:nl], ss.cost[:nr])
	latency := int64(0)
	for l, r := range m.L2R {
		if r == matching.None {
			continue
		}
		req := seg.Reqs[l]
		t := int(ss.absT[r])
		latency += int64(t - req.Arrive/sp.hold*sp.hold)
		if t < req.Arrive {
			t = req.Arrive
		}
		log = append(log, core.Fulfillment{Req: req, Res: int(ss.absRes[r]), Round: t})
	}
	return log, latency
}

// Segments decomposes tr into the independent pieces the segmented solvers
// work on: clean time cuts, falling back to union-find connected components
// when no cut exists.
func Segments(tr *core.Trace) []Segment {
	segs := SegmentTrace(tr)
	if len(segs) <= 1 {
		segs = components(tr)
	}
	return segs
}

// Objective selects the offline optimum Solve computes.
type Objective int

const (
	// Cardinality is the maximum number of requests an offline schedule
	// serves (Optimum).
	Cardinality Objective = iota
	// Profit is the maximum total request weight an offline schedule serves
	// (MaxProfit; equals Cardinality on unweighted traces).
	Profit
	// MinLatency is the minimum total service latency among
	// maximum-cardinality offline schedules (OptimumMinLatency).
	MinLatency
)

// Solve returns the offline optimum of tr under obj. Cardinality is
// Optimum(tr), the incremental pass; workers is ignored. Profit and
// MinLatency decompose the trace into independent segments (Segments) and
// solve each on the worker pool (workers <= 0: GOMAXPROCS; never more
// goroutines than segments). Weighted and min-cost matchings decompose
// exactly over connected components — no profit-improving path crosses
// between them — so value equals the monolithic solver's exactly, while peak
// memory is proportional to the largest segment rather than the horizon. log
// is set only for MinLatency: a schedule with OptimumMinLatency's guarantees
// (maximum cardinality, minimum total latency) in request-ID order, possibly
// a different one of the equally cheap schedules.
func Solve(tr *core.Trace, obj Objective, workers int) (value int, log []core.Fulfillment) {
	if obj == Cardinality {
		return Optimum(tr), nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	segs := Segments(tr)
	return solvePool(spaceOf(tr), segs, obj, max(1, min(workers, len(segs))))
}

// solvePool is the worker pool of the weighted segmented solvers. It solves
// obj (Profit or MinLatency) on every segment of segs, all in space sp, on
// workers goroutines, and returns the summed value plus, for MinLatency, the
// segments' fulfillment logs. Each worker owns its segSolver scratch, so
// steady-state allocation is per worker, not per segment. Which worker
// solves which segment depends on scheduling; int64 sums and logs sorted by
// request ID keep the result deterministic.
func solvePool(sp space, segs []Segment, obj Objective, workers int) (int, []core.Fulfillment) {
	type acc struct {
		value int64
		log   []core.Fulfillment
	}
	accs := make([]acc, workers)
	solve := func(ss *segSolver, seg Segment, a *acc) {
		switch obj {
		case Profit:
			a.value += ss.maxProfit(sp, seg)
		case MinLatency:
			var latency int64
			a.log, latency = ss.minLatency(sp, seg, a.log)
			a.value += latency
		default:
			panic(fmt.Sprintf("offline: unknown objective %d", obj))
		}
	}
	if workers == 1 {
		ss := newSegSolver()
		for _, seg := range segs {
			solve(ss, seg, &accs[0])
		}
	} else {
		ch := make(chan Segment)
		var wg sync.WaitGroup
		for w := range accs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ss := newSegSolver()
				for seg := range ch {
					solve(ss, seg, &accs[w])
				}
			}()
		}
		for _, seg := range segs {
			ch <- seg
		}
		close(ch)
		wg.Wait()
	}
	total := int64(0)
	var log []core.Fulfillment
	for _, a := range accs {
		total += a.value
		log = append(log, a.log...)
	}
	sort.Slice(log, func(i, j int) bool { return log[i].Req.ID < log[j].Req.ID })
	return int(total), log
}
