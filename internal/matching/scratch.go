package matching

// Scratch holds the reusable buffers of every solver in the package, so a
// caller that recomputes matchings round after round (the rescheduling
// strategies, the parallel measurement harness) reaches a steady state with
// no per-round allocation. The zero value is ready to use; buffers grow
// monotonically to the largest graph seen. A Scratch is not safe for
// concurrent use — give each goroutine (or each strategy instance) its own.
//
// Every method is the exact algorithm of the corresponding package-level
// function; results are bit-for-bit identical, only the buffer lifetimes
// differ. The free functions delegate to a throwaway Scratch.
type Scratch struct {
	aug        augmenter
	dist       []int32 // Hopcroft–Karp BFS layers
	queue      []int32 // Hopcroft–Karp BFS queue
	order      []int   // rightsByClass result buffer
	classCount []int   // rightsByClass counting-sort buffer
	seenLB     []bool  // PreferLowAtClass relocation marks
	seenRB     []bool
}

// ExtendFromLeft is ExtendFromLeft with reused search buffers.
func (sc *Scratch) ExtendFromLeft(g *Graph, m *Matching, order []int) int {
	sc.aug.bind(g)
	sc.aug.beginPass(len(order))
	gained := 0
	for _, l := range order {
		if m.L2R[l] == None && sc.aug.augmentFromLeft(m, l) {
			gained++
		}
	}
	sc.aug.endPass()
	return gained
}

// ExtendFromRight is ExtendFromRight with reused search buffers.
func (sc *Scratch) ExtendFromRight(g *Graph, m *Matching, order []int) int {
	sc.aug.bind(g)
	sc.aug.beginPass(len(order))
	gained := 0
	for _, r := range order {
		if m.R2L[r] == None && sc.aug.augmentFromRight(m, r) {
			gained++
		}
	}
	sc.aug.endPass()
	return gained
}

// LexMaxExtend is LexMaxExtend with reused class-sort and search buffers.
func (sc *Scratch) LexMaxExtend(g *Graph, m *Matching, classOf []int32) int {
	checkClassLen(g, classOf)
	sc.order, sc.classCount = rightsByClassInto(sc.order, sc.classCount, classOf)
	return sc.ExtendFromRight(g, m, sc.order)
}

// HopcroftKarpExtend is HopcroftKarpExtend with reused BFS buffers.
func (sc *Scratch) HopcroftKarpExtend(g *Graph, m *Matching) int {
	nl := g.NLeft()
	if cap(sc.dist) < nl {
		sc.dist = make([]int32, nl)
	}
	if cap(sc.queue) < nl {
		sc.queue = make([]int32, 0, nl)
	}
	dist := sc.dist[:nl]
	queue := sc.queue[:0]
	total := 0
	inf := hkInfinity()

	bfs := func() bool {
		queue = queue[:0]
		for l := 0; l < nl; l++ {
			if m.L2R[l] == None {
				dist[l] = 0
				queue = append(queue, int32(l))
			} else {
				dist[l] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			l := queue[qi]
			for _, r := range g.adj[l] {
				ml := m.R2L[r]
				if ml == None {
					found = true
				} else if dist[ml] == inf {
					dist[ml] = dist[l] + 1
					queue = append(queue, ml)
				}
			}
		}
		return found
	}

	var dfs func(l int32) bool
	dfs = func(l int32) bool {
		for _, r := range g.adj[l] {
			ml := m.R2L[r]
			if ml == None || (dist[ml] == dist[l]+1 && dfs(ml)) {
				m.Match(int(l), int(r))
				return true
			}
		}
		dist[l] = inf
		return false
	}

	for bfs() {
		for l := 0; l < nl; l++ {
			if m.L2R[l] == None && dist[l] == 0 {
				if dfs(int32(l)) {
					total++
				}
			}
		}
	}
	sc.queue = queue[:0]
	return total
}

// PreferLowAtClass is PreferLowAtClass with reused relocation marks.
func (sc *Scratch) PreferLowAtClass(g *Graph, m *Matching, classOf []int32, class int32) int {
	sc.seenLB = ensureBools(sc.seenLB, g.NLeft())
	sc.seenRB = ensureBools(sc.seenRB, g.NRight())
	a := &avoidDFS{
		g:       g,
		m:       m,
		classOf: classOf,
		avoid:   class,
		seenL:   sc.seenLB[:g.NLeft()],
		seenR:   sc.seenRB[:g.NRight()],
	}
	return preferLowAtClass(g, m, classOf, class, a)
}

// ensureBools returns s with length at least n, reusing capacity. Contents
// are irrelevant: avoidDFS clears its marks before every search.
func ensureBools(s []bool, n int) []bool {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	return make([]bool, n)
}
