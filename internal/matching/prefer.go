package matching

// PreferLowAtClass reassigns the occupants of the right vertices of the given
// weight class so that, processing left vertices in ascending index order,
// each claims a class vertex whose current occupant has a higher index —
// provided the occupant can be relocated without disturbing any other vertex
// of that class and without changing the per-class coverage counts.
//
// In the scheduling application the class is the current round: among the
// matchings that are maximum, current-round-maximal and (for A_balance)
// F-maximal, this picks the member that serves the *oldest* pending requests
// now. That is exactly the member the paper's lower-bound proofs for A_eager
// (Theorem 2.4) and A_balance (Theorem 2.5) reason about: without it, the
// slot-greedy tends to pull old requests into late slots via augmenting
// reroutes and serve young ones immediately, accidentally realizing a
// near-optimal member of the strategy class.
//
// Cardinality, the covered set of class vertices, and the per-class coverage
// counts are all preserved; matched left vertices stay matched (so previously
// scheduled requests remain scheduled). Returns the number of swaps. The
// relocation marks live in sc and are reused across calls.
func (sc *Scratch) PreferLowAtClass(g *Graph, m *Matching, classOf []int32, class int32) int {
	a := &sc.prefer
	a.g, a.m, a.classOf, a.avoid = g, m, classOf, class
	a.seenR = ensureLen(a.seenR, g.NRight())
	swaps := 0
	for l := 0; l < g.NLeft(); l++ {
		cur := m.L2R[l]
		if cur != None && classOf[cur] == class {
			continue // already served in this class
		}
		for _, r := range g.adj[l] {
			if classOf[r] != class {
				continue
			}
			occ := m.R2L[r]
			if occ == None || occ <= int32(l) {
				// A free class slot adjacent to l cannot happen when m is
				// maximal with maximal class coverage; an older occupant
				// keeps its seat.
				continue
			}
			// Tentatively seat l at r and relocate the occupant. The
			// relocation must consume a free slot of the same class as l's
			// old slot so the class-coverage vector is unchanged (any slot
			// if l held none, which cannot extend a maximum matching and
			// thus fails harmlessly).
			target := int32(-1)
			if cur != None {
				target = classOf[cur]
			}
			m.UnmatchLeft(l)
			m.UnmatchLeft(int(occ))
			m.Match(l, int(r))
			if a.relocate(occ, target) {
				swaps++
				break
			}
			// Revert.
			m.UnmatchLeft(l)
			m.Match(int(occ), int(r))
			if cur != None {
				m.Match(l, int(cur))
			}
		}
	}
	return swaps
}

// avoidDFS is an augmenting search that never visits right vertices of the
// avoided class and only terminates in a free right vertex of the target
// class, guaranteeing the exchange is class-neutral. Only rights are marked:
// a search enters a left only through its matched right, so it cannot reach
// a left twice. Marks are stamps, as in augmenter, so a search starts
// without clearing them.
type avoidDFS struct {
	g       *Graph
	m       *Matching
	classOf []int32
	avoid   int32
	stamp   int   // mark of the current search
	seenR   []int // mark of the search that visited the right vertex
	work    Work  // relocation searches started and vertices they marked
}

// relocate rematches the (currently unmatched) left vertex l, rerouting other
// pairs as needed. Success implies exactly one free right vertex of class
// `target` became covered (any class if target is -1). Failure leaves the
// matching untouched.
func (a *avoidDFS) relocate(l int32, target int32) bool {
	a.stamp++
	a.work.Searches++
	return a.dfs(l, target)
}

func (a *avoidDFS) dfs(l int32, target int32) bool {
	for _, r := range a.g.adj[l] {
		if a.classOf[r] == a.avoid || a.seenR[r] == a.stamp {
			continue
		}
		if a.m.R2L[r] == None && (target == -1 || a.classOf[r] == target) {
			a.seenR[r] = a.stamp
			a.work.Marks++
			a.m.Match(int(l), int(r))
			return true
		}
	}
	for _, r := range a.g.adj[l] {
		if a.classOf[r] == a.avoid || a.seenR[r] == a.stamp {
			continue
		}
		ml := a.m.R2L[r]
		if ml == None {
			continue // free but wrong class: not a valid endpoint, and
			// rerouting through it would change coverage
		}
		a.seenR[r] = a.stamp
		a.work.Marks++
		if a.dfs(ml, target) {
			a.m.Match(int(l), int(r))
			return true
		}
	}
	return false
}
