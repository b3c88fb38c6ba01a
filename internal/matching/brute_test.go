package matching

import (
	"cmp"
	"slices"
)

// Brute-force reference solvers. Exponential-time, run on small graphs to
// validate the production algorithms: Kuhn, Incremental, the slot greedy
// (Scratch.ExtendFromRight over classOrder), MinCostMatchingLR and
// MaxProfitMatching.

// BruteMaximumSize returns the maximum matching cardinality of g by exhaustive
// search over left-vertex assignments.
func BruteMaximumSize(g *Graph) int {
	usedR := make([]bool, g.NRight())
	var rec func(l int) int
	rec = func(l int) int {
		if l == g.NLeft() {
			return 0
		}
		best := rec(l + 1) // leave l unmatched
		for _, r := range g.Adj(l) {
			if !usedR[r] {
				usedR[r] = true
				if v := 1 + rec(l+1); v > best {
					best = v
				}
				usedR[r] = false
			}
		}
		return best
	}
	return rec(0)
}

// BruteLexMax returns a maximum matching of g whose vector of per-class
// matched-right counts (ascending class index) is lexicographically maximal,
// by exhaustive search. classOf[r] gives the class of right vertex r.
func BruteLexMax(g *Graph, classOf []int32) *Matching {
	nClasses := 0
	for _, c := range classOf {
		if int(c)+1 > nClasses {
			nClasses = int(c) + 1
		}
	}
	usedR := make([]bool, g.NRight())
	cur := NewMatching(g.NLeft(), g.NRight())
	var best *Matching
	bestSize := -1
	bestVec := make([]int, nClasses)
	curVec := make([]int, nClasses)
	curSize := 0

	better := func() bool {
		if curSize != bestSize {
			return curSize > bestSize
		}
		for i := range curVec {
			if curVec[i] != bestVec[i] {
				return curVec[i] > bestVec[i]
			}
		}
		return false
	}

	var rec func(l int)
	rec = func(l int) {
		if l == g.NLeft() {
			if better() {
				best = cur.Clone()
				bestSize = curSize
				copy(bestVec, curVec)
			}
			return
		}
		rec(l + 1)
		for _, r := range g.Adj(l) {
			if usedR[r] {
				continue
			}
			usedR[r] = true
			cur.Match(l, int(r))
			curVec[classOf[r]]++
			curSize++
			rec(l + 1)
			curSize--
			curVec[classOf[r]]--
			cur.UnmatchLeft(l)
			usedR[r] = false
		}
	}
	rec(0)
	if best == nil {
		best = NewMatching(g.NLeft(), g.NRight())
	}
	return best
}

// BruteMinRightCost returns the minimum total right-vertex cost over all
// maximum matchings of g, the objective MinCostMatchingLR optimizes with zero
// left costs.
func BruteMinRightCost(g *Graph, rightCost []int64) int64 {
	maxSize := BruteMaximumSize(g)
	usedR := make([]bool, g.NRight())
	const inf = int64(1) << 62
	best := inf
	var rec func(l, size int, cost int64)
	rec = func(l, size int, cost int64) {
		if l == g.NLeft() {
			if size == maxSize && cost < best {
				best = cost
			}
			return
		}
		// Prune: even matching every remaining left vertex cannot reach max.
		if size+(g.NLeft()-l) < maxSize {
			return
		}
		rec(l+1, size, cost)
		for _, r := range g.Adj(l) {
			if usedR[r] {
				continue
			}
			usedR[r] = true
			rec(l+1, size+1, cost+rightCost[r])
			usedR[r] = false
		}
	}
	rec(0, 0, 0)
	return best
}

// BruteMaxProfit is the exponential reference: the maximum achievable total
// profit over all matchings.
func BruteMaxProfit(g *Graph, profit []int64) int64 {
	usedR := make([]bool, g.NRight())
	var rec func(l int) int64
	rec = func(l int) int64 {
		if l == g.NLeft() {
			return 0
		}
		best := rec(l + 1)
		for _, r := range g.Adj(l) {
			if !usedR[r] {
				usedR[r] = true
				if v := profit[l] + rec(l+1); v > best {
					best = v
				}
				usedR[r] = false
			}
		}
		return best
	}
	return rec(0)
}

// classOrder returns the right vertices sorted by (class, index): the slot
// order of the weight-class greedy. The routers' roundClasses builds this
// order directly, since their slot classes never decrease along the index.
func classOrder(classOf []int32) []int {
	order := make([]int, len(classOf))
	for r := range order {
		order[r] = r
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(classOf[a], classOf[b]) })
	return order
}

// lexMax runs the weight-class greedy the balance routers run: one
// Scratch.ExtendFromRight pass from an empty matching over classOrder.
func lexMax(g *Graph, classOf []int32) *Matching {
	m := NewMatching(g.NLeft(), g.NRight())
	new(Scratch).ExtendFromRight(g, m, classOrder(classOf))
	return m
}

// classCounts returns the number of matched right vertices of m in each
// class, over nClasses classes.
func classCounts(m *Matching, classOf []int32, nClasses int) []int {
	counts := make([]int, nClasses)
	for r, l := range m.R2L {
		if l != None {
			counts[classOf[r]]++
		}
	}
	return counts
}
