package strategies

import (
	"slices"

	"reqsched/internal/core"
	"reqsched/internal/matching"
)

// winGraph is a bipartite graph between a set of live requests and the slots
// of the current window, with the shared slot indexing
// ((round - t) * n + resource) * cap + unit. Under the unit model (cap=1)
// this is the legacy (round - t) * n + resource indexing exactly. Capacities
// above 1 expand each (resource, round) slot into cap interchangeable unit
// vertices — sound at hold=1, where the slots of one round are independent;
// the matching strategies' SupportsModel gates longer holds out.
type winGraph struct {
	g     *matching.Graph
	reqs  []*core.Request
	n     int
	capc  int // capacity units per (resource, round) slot
	t     int // current round
	depth int
}

// slotIdx maps (resource, absolute round) to the right-vertex index of its
// first capacity unit; units u of the slot follow at slotIdx + u.
func (wg *winGraph) slotIdx(res, round int) int {
	return ((round-wg.t)*wg.n + res) * wg.capc
}

// slotOf inverts slotIdx, dropping the (interchangeable) unit.
func (wg *winGraph) slotOf(idx int) (res, round int) {
	return (idx / wg.capc) % wg.n, wg.t + idx/(wg.n*wg.capc)
}

// slots returns the number of right vertices of a window graph over w.
func slots(w *core.Window) int { return w.Depth() * w.N() * w.Model().Cap }

// roundScratch is the per-strategy buffer set the global strategies carry
// across rounds: the window graph and its fill buffers, the working and cover
// matchings, the weight-class vector and slot order, the identity order, the
// request buffer, and the matching-solver scratch. Everything is allocated on
// first use and reused afterwards, so each strategy's steady-state round does
// no graph or matching allocation. A roundScratch belongs to exactly one
// strategy instance; strategy instances are therefore not safe for
// concurrent use (the measurement harness already builds one instance per
// goroutine).
type roundScratch struct {
	wg    winGraph
	m     matching.Matching
	cover matching.Matching
	ms    matching.Scratch
	order []int
	reqs  []*core.Request

	// Fill buffers: deg holds the right-vertex degrees, first the first unit
	// with edges of each (round offset, resource) slot, and hist the number
	// of (request, alternative) pairs per (resource, last round offset).
	deg   []int32
	first []int32
	hist  []int32

	// The class vector and the slot order depend only on (n, Cap, depth,
	// maxClasses), so they are rebuilt only when that key changes.
	classKey  [4]int
	classOf   []int32
	slotOrder []int
}

// buildGraph fills the scratch-owned window graph for the given requests. If
// onlyFree is true, slots currently assigned in w take no edges (the A_fix
// family, which never reschedules, matches new requests into the free slots
// only); if false, every window slot does (the A_eager family recomputes
// from scratch after resetting the window). Edges follow the deterministic
// preference order: per request, alternatives as listed, rounds ascending,
// units ascending, clipped to the request's deadline.
//
// The graph is built in one pass (matching.Graph.BeginFill). Each unit of a
// slot takes an edge from every (request, alternative) pair on its resource
// whose clipped deadline reaches the slot's round, so a per-resource
// histogram of clipped deadlines gives every right degree up front, and the
// left lists and the right adjacency are then written together.
func (sc *roundScratch) buildGraph(w *core.Window, reqs []*core.Request, onlyFree bool) *winGraph {
	wg := &sc.wg
	wg.reqs, wg.n, wg.capc, wg.t, wg.depth = reqs, w.N(), w.Model().Cap, w.Round(), w.Depth()
	n, capc, t, depth := wg.n, wg.capc, wg.t, wg.depth
	if wg.g == nil {
		wg.g = new(matching.Graph)
	}

	// first[k*n+res] is the first unit of slot (res, t+k) that takes edges:
	// 0, or under onlyFree the slot's assigned count, or capc when the slot
	// is not free at all.
	slots := depth * n
	sc.first = slices.Grow(sc.first[:0], slots)[:slots]
	for k := 0; k < depth; k++ {
		for res := 0; res < n; res++ {
			u := 0
			if onlyFree {
				u = capc
				if w.Free(res, t+k) {
					u = w.AssignedCount(res, t+k)
				}
			}
			sc.first[k*n+res] = int32(u)
		}
	}
	sc.hist = slices.Grow(sc.hist[:0], slots)[:slots]
	clear(sc.hist)
	for _, r := range reqs {
		if last := min(r.Deadline(), t+depth-1); last >= t {
			for _, a := range r.Alts {
				sc.hist[a*depth+last-t]++
			}
		}
	}
	sc.deg = slices.Grow(sc.deg[:0], slots*capc)[:slots*capc]
	for res := 0; res < n; res++ {
		reach := int32(0) // pairs on res whose clipped deadline is t+k or later
		for k := depth - 1; k >= 0; k-- {
			reach += sc.hist[res*depth+k]
			s := k*n + res
			for u := 0; u < capc; u++ {
				d := reach
				if int32(u) < sc.first[s] {
					d = 0
				}
				sc.deg[s*capc+u] = d
			}
		}
	}

	g := wg.g
	g.BeginFill(len(reqs), len(sc.deg), sc.deg)
	for _, r := range reqs {
		last := min(r.Deadline(), t+depth-1)
		for _, a := range r.Alts {
			// s runs over the slots (a, t), (a, t+1), ..., (a, last).
			for s := a; s <= (last-t)*n+a; s += n {
				for u := sc.first[s]; u < int32(capc); u++ {
					g.FillEdge(int32(s*capc) + u)
				}
			}
		}
		g.EndLeft()
	}
	g.EndFill()
	return wg
}

// emptyMatching returns the scratch working matching, reset to the
// dimensions of the scratch graph.
func (sc *roundScratch) emptyMatching() *matching.Matching {
	sc.m.Reset(sc.wg.g.NLeft(), sc.wg.g.NRight())
	return &sc.m
}

// roundClasses returns the weight-class vector of the balance strategies
// over the scratch graph's slots, and the slot order of their class greedy.
// Slot class = rounds from now, so class 0 (the current round) is the most
// preferred; maxClass caps the classes (A_eager uses 2: "now" vs "later").
// Classes never decrease along the slot index, so the greedy's (class,
// index) order is the identity (TestRoundClassesSlotOrderIsClassSorted).
func (sc *roundScratch) roundClasses(maxClass int) ([]int32, []int) {
	wg := &sc.wg
	key := [4]int{wg.n, wg.capc, wg.depth, maxClass}
	if sc.classOf != nil && key == sc.classKey {
		return sc.classOf, sc.slotOrder
	}
	stride := wg.n * wg.capc
	sc.classKey = key
	sc.classOf = make([]int32, wg.depth*stride)
	sc.slotOrder = make([]int, len(sc.classOf))
	for idx := range sc.classOf {
		sc.classOf[idx] = int32(min(idx/stride, maxClass-1))
		sc.slotOrder[idx] = idx
	}
	return sc.classOf, sc.slotOrder
}

// coverMatching sets the scratch cover matching to w's current schedule,
// read as a matching of the window graph buildGraph will build over reqs
// (the inherited schedule), for use with matching.CoverLeft. It must run
// before the window is reset, and it reports whether any request of reqs is
// assigned. A slot's assignments take its units 0, 1, ... in cell order, as
// core.Window.UnitOf numbers them.
func (sc *roundScratch) coverMatching(w *core.Window, reqs []*core.Request) bool {
	n, capc, t := w.N(), w.Model().Cap, w.Round()
	sc.cover.Reset(len(reqs), slots(w))
	covered := false
	for li, r := range reqs {
		if res, round, unit, ok := w.UnitOf(r); ok {
			sc.cover.Match(li, ((round-t)*n+res)*capc+unit)
			covered = true
		}
	}
	return covered
}

// identOrder returns the scratch identity permutation 0..n-1.
func (sc *roundScratch) identOrder(n int) []int {
	if cap(sc.order) >= n {
		sc.order = sc.order[:n]
	} else {
		sc.order = make([]int, n)
	}
	for i := range sc.order {
		sc.order[i] = i
	}
	return sc.order
}

// apply writes matched pairs into the window. Requests already assigned in w
// are skipped (the A_fix family extends in place); the A_eager family resets
// the window first so everything is applied.
func (wg *winGraph) apply(w *core.Window, m *matching.Matching) {
	for li, ridx := range m.L2R {
		if ridx == matching.None {
			continue
		}
		r := wg.reqs[li]
		if w.Assigned(r) {
			continue
		}
		res, round := wg.slotOf(int(ridx))
		w.Assign(r, res, round)
	}
}
