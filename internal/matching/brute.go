package matching

// Brute-force reference solvers. Exponential-time, used only in tests on
// small graphs to validate the production algorithms (Kuhn, Incremental,
// LexMax, MinCostMatching).

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
// maximum matchings of g, the objective MinCostMatching optimizes.
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
