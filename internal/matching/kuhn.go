package matching

import "slices"

// Kuhn computes a maximum matching by augmenting from every left vertex in
// ascending index order, exploring right neighbors in adjacency (insertion)
// order. The result is deterministic: among all maximum matchings it is the
// one reached by this fixed search order, which the adversarial constructions
// rely on (requests list their "preferred" alternative first).
func Kuhn(g *Graph) *Matching {
	m := NewMatching(g.NLeft(), g.NRight())
	var a augmenter
	a.bind(g)
	a.beginPass(g.NLeft())
	for l := 0; l < g.NLeft(); l++ {
		a.augmentFromLeft(m, l)
	}
	a.endPass()
	return m
}

// ExtendFromLeft augments m from each listed free left vertex in the given
// order. Left vertices that are already matched are skipped. It returns the
// number of successful augmentations. Matched vertices are never unmatched by
// augmentation, so any "already scheduled" invariant is preserved. Searches
// skip regions an earlier failed search of the call proved saturated (see
// augmenter); the matching is the one the unpruned search order reaches.
func ExtendFromLeft(g *Graph, m *Matching, order []int) int {
	var sc Scratch
	return sc.ExtendFromLeft(g, m, order)
}

// ExtendFromRight augments m from each listed free right vertex in the given
// order, exploring left neighbors in adjacency order. Used by the
// weight-class (transversal matroid) greedy: processing right vertices in
// descending weight order yields a maximum matching whose matched right set
// has maximum weight.
//
// Once a search from a free right fails, every left it visited is matched
// into the rights it visited, so no later search of the call can augment
// through them; they are skipped from then on (see augmenter). Under load
// most slot searches fail, so this turns the k failed searches into a
// saturated component of size s from O(k·s) visits into O(k + s), and the
// resulting matching is bit-identical to the unpruned search.
func ExtendFromRight(g *Graph, m *Matching, order []int) int {
	var sc Scratch
	return sc.ExtendFromRight(g, m, order)
}

// augmenter holds the scratch state for repeated augmenting-path searches so
// that visited marks are cleared in O(1) between searches (stamping). An
// augmenter can be rebound to successive graphs via bind, which reuses the
// mark storage: marks only ever increase, so marks left over from an earlier
// graph or pass can never read as visited.
//
// Searches run in passes (one ExtendFromLeft/ExtendFromRight/Kuhn call), and
// a pass prunes saturated ("dead") regions, as Incremental does for its
// growing graph. Invariant: a vertex marked dead cannot lie on any augmenting
// path for the rest of the pass. Proof, for searches from the right (the
// left side mirrors it): let a search from free right r fail, having visited
// rights R* (r and the partners of the lefts it entered) and lefts L*. A
// free left adjacent to a visited right would have ended the search, so
// every neighbor of R* lies in L* and every l in L* is matched into R*. An
// alternating path that enters L* therefore alternates between L* and R*
// forever and never reaches a free left; so no later search of the pass
// succeeds through L*, the matching on L* ∪ R* never changes, and the
// argument keeps holding for the rest of the pass. A pruned branch is thus
// one the unpruned search would have walked and returned false from without
// touching the matching, and every vertex it would have marked is itself
// dead — so each search finds the same first path, and every matching is
// identical to the unpruned one.
//
// Only the side a search tests is marked: searches from the right test seenL
// (rights are reached only as partners of lefts), searches from the left
// test seenR. A pass's dead mark is one above every stamp the pass can use,
// so "visited by this search or dead" is the single test mark >= stamp, and
// the next pass starts above it.
type augmenter struct {
	g     *Graph
	stamp int     // mark of the current search
	dead  int     // mark of the current pass's saturated regions
	seenL []int   // mark when left vertex was visited (searches from the right)
	seenR []int   // mark when right vertex was visited (searches from the left)
	trail []int32 // vertices the current search marked, for dead-marking on failure
	work  Work    // searches started and vertices marked, over the augmenter's life
}

// bind points the augmenter at g, growing the mark arrays and the trail as
// needed: a search marks each vertex of one side at most once, so the trail
// never grows during a pass.
func (a *augmenter) bind(g *Graph) {
	a.g = g
	a.seenL = ensureLen(a.seenL, g.NLeft())
	a.seenR = ensureLen(a.seenR, g.NRight())
	a.trail = slices.Grow(a.trail[:0], max(g.NLeft(), g.NRight()))
}

// beginPass opens a pass of at most searches augmentations: its dead mark
// sits above every stamp those searches will take.
func (a *augmenter) beginPass(searches int) { a.dead = a.stamp + searches + 1 }

// endPass closes the pass so the next one's stamps start above its dead mark.
func (a *augmenter) endPass() { a.stamp = a.dead }

// ensureLen returns s with length at least n, reusing capacity when possible
// and growing it as append does otherwise. Retained contents beyond the
// previous length are zero or stale stamps from earlier searches, which are
// always smaller than the current stamp.
func ensureLen(s []int, n int) []int {
	if n <= len(s) {
		return s
	}
	return slices.Grow(s, n-len(s))[:n]
}

// augmentFromLeft searches for an augmenting path starting at free left vertex
// l and flips it if found; on failure the rights it visited are marked dead.
// Depth-first; neighbors explored in adjacency order.
func (a *augmenter) augmentFromLeft(m *Matching, l int) bool {
	a.stamp++
	a.trail = a.trail[:0]
	ok := a.dfsLeft(m, int32(l))
	a.work.add(len(a.trail))
	if ok {
		return true
	}
	for _, r := range a.trail {
		a.seenR[r] = a.dead
	}
	return false
}

func (a *augmenter) dfsLeft(m *Matching, l int32) bool {
	// Prefer a free right neighbor (in listed order) before rerouting
	// matched ones: this keeps the deterministic semantics "a request takes
	// its first free slot; existing assignments move only when necessary",
	// which the adversarial constructions and the oldest-first service
	// order rely on. A free right is never marked: a search marks only the
	// matched rights it passes through, and dead regions are saturated.
	for _, r := range a.g.adj[l] {
		if m.R2L[r] == None {
			m.Match(int(l), int(r))
			return true
		}
	}
	for _, r := range a.g.adj[l] {
		if a.seenR[r] >= a.stamp {
			continue
		}
		a.seenR[r] = a.stamp
		a.trail = append(a.trail, r)
		if a.dfsLeft(m, m.R2L[r]) {
			m.Match(int(l), int(r))
			return true
		}
	}
	return false
}

// augmentFromRight mirrors augmentFromLeft starting from a free right vertex.
func (a *augmenter) augmentFromRight(m *Matching, r int) bool {
	a.stamp++
	a.trail = a.trail[:0]
	ok := a.dfsRight(m, int32(r))
	a.work.add(len(a.trail))
	if ok {
		return true
	}
	for _, l := range a.trail {
		a.seenL[l] = a.dead
	}
	return false
}

func (a *augmenter) dfsRight(m *Matching, r int32) bool {
	// Mirror of dfsLeft: a slot takes the first (lowest-index, i.e. oldest)
	// free request before rerouting matched ones.
	for _, l := range a.g.RAdj(int(r)) {
		if m.L2R[l] == None {
			m.Match(int(l), int(r))
			return true
		}
	}
	for _, l := range a.g.RAdj(int(r)) {
		if a.seenL[l] >= a.stamp {
			continue
		}
		a.seenL[l] = a.stamp
		a.trail = append(a.trail, l)
		if a.dfsRight(m, m.L2R[l]) {
			m.Match(int(l), int(r))
			return true
		}
	}
	return false
}
