package matching

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
