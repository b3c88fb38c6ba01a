package matching

import "fmt"

// This file implements the machinery behind the balance strategies of the
// paper. A_fix_balance and A_balance choose, among the admissible matchings,
// one maximizing F = sum_j X_{t+j} * (n+1)^(d-j), where X_{t+j} is the number
// of matched time slots in round t+j. Because (n+1)^(d-j) dominates the sum of
// all lower weights, maximizing F is exactly the lexicographic maximization of
// the vector (X_t, ..., X_{t+d-1}).
//
// The sets of right (slot) vertices coverable by a matching form a transversal
// matroid, so the max-weight coverable slot set is found by the matroid greedy:
// process slots in descending weight (ascending round) order and attempt one
// augmenting search from each. Since every class weight dominates all lower
// classes combined, the greedy result is simultaneously of maximum cardinality
// (it is a basis) and lexicographically optimal.

// LexMax computes a maximum matching of g whose per-class matched-right-vertex
// counts are lexicographically maximal, where classOf[r] gives the weight
// class of right vertex r (class 0 is the heaviest, i.e. preferred). Right
// vertices are processed in ascending (class, index) order.
func LexMax(g *Graph, classOf []int32) *Matching {
	m := NewMatching(g.NLeft(), g.NRight())
	LexMaxExtend(g, m, classOf)
	return m
}

// LexMaxExtend runs the weight-class greedy starting from an existing matching
// m. Augmentation never unmatches a vertex, so every pre-matched vertex stays
// matched; starting from a non-empty matching yields the lexicographic optimum
// among matchings whose matched-right set contains m's matched-right set.
// It returns the number of augmentations performed.
//
// The slot searches run as one ExtendFromRight pass, so a slot that cannot be
// filled costs only the part of its component no earlier failed slot already
// proved saturated: a failed search leaves a region whose lefts are all
// matched into it and whose edges all stay inside it, which no later
// augmenting path can leave (the augmenter's dead-region invariant, the same
// pruning Incremental applies across insertions). The greedy's matching is
// unchanged by the pruning.
func LexMaxExtend(g *Graph, m *Matching, classOf []int32) int {
	checkClassLen(g, classOf)
	order := rightsByClass(classOf)
	return ExtendFromRight(g, m, order)
}

func checkClassLen(g *Graph, classOf []int32) {
	if len(classOf) != g.NRight() {
		panic(fmt.Sprintf("matching: classOf length %d != nRight %d", len(classOf), g.NRight()))
	}
}

// rightsByClass returns right vertex indices sorted by (class, index)
// ascending using a counting sort, preserving index order within a class.
func rightsByClass(classOf []int32) []int {
	maxC := int32(0)
	for _, c := range classOf {
		if c < 0 {
			panic("matching: negative weight class")
		}
		maxC = max(maxC, c)
	}
	count := make([]int, maxC+2)
	for _, c := range classOf {
		count[c+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	order := make([]int, len(classOf))
	for r, c := range classOf {
		order[count[c]] = r
		count[c]++
	}
	return order
}

// CoverLeft transforms the maximum matching m so that every left vertex
// covered by the matching `cover` is also covered by m, without changing m's
// matched right-vertex set or its cardinality. This is the constructive half
// of the Mendelsohn–Dulmage theorem: walk the component of each uncovered
// left vertex in (cover xor m) and flip it. The strategies use it to restore
// the "all previously scheduled requests remain scheduled" property after
// recomputing a lexicographically optimal matching from scratch.
//
// Precondition: m is a maximum matching of g and cover is a matching of g
// (typically last round's schedule). If m is not maximum the walk may hit a
// right vertex that is free in m; CoverLeft then simply matches it (gaining
// an edge) and stops, which is still a valid matching.
func CoverLeft(g *Graph, m, cover *Matching) {
	for p := 0; p < g.NLeft(); p++ {
		if cover.L2R[p] == None || m.L2R[p] != None {
			continue
		}
		// Walk the alternating path starting at p: cover edge forward,
		// m edge back, flipping as we go. The path must terminate at a
		// left vertex not covered by `cover` (a cycle is impossible
		// because p has m-degree 0, and ending at a right vertex free
		// in m would contradict maximality of m).
		cur := int32(p)
		for {
			r := cover.L2R[cur]
			if r == None {
				break // cur ends the path uncovered by cover: done
			}
			u := m.R2L[r]
			m.Match(int(cur), int(r)) // unmatches u from r internally
			if u == None {
				break // m was not maximum; we just augmented
			}
			cur = u
		}
	}
}

// ClassCounts returns, for a matching m and class assignment classOf, the
// number of matched right vertices in each class (index = class).
func ClassCounts(m *Matching, classOf []int32) []int {
	maxC := int32(0)
	for _, c := range classOf {
		if c > maxC {
			maxC = c
		}
	}
	counts := make([]int, maxC+1)
	for r, l := range m.R2L {
		if l != None {
			counts[classOf[r]]++
		}
	}
	return counts
}
