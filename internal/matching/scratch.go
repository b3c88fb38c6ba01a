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
	aug    augmenter
	prefer avoidDFS // PreferLowAtClass relocation search and its marks
}

// Work counts the search effort spent through a Scratch: the augmenting-path
// searches its ExtendFromLeft, ExtendFromRight and PreferLowAtClass calls
// started, and the vertices those searches marked visited. The counts depend
// only on the inputs and the code, not on the host, so tests pin them
// exactly where wall time would be noise.
type Work struct {
	Searches int64
	Marks    int64
}

func (w *Work) add(marks int) {
	w.Searches++
	w.Marks += int64(marks)
}

// Work returns the search effort accumulated over the Scratch's life.
func (sc *Scratch) Work() Work {
	return Work{
		Searches: sc.aug.work.Searches + sc.prefer.work.Searches,
		Marks:    sc.aug.work.Marks + sc.prefer.work.Marks,
	}
}

// ExtendFromLeft is ExtendFromLeft with reused search buffers.
func (sc *Scratch) ExtendFromLeft(g *Graph, m *Matching, order []int) int {
	sc.aug.bind(g)
	sc.aug.beginPass(len(order))
	// A search from a left vertex can only end at a free right vertex, so
	// once none is left every further search would fail, and a failed search
	// leaves the matching unchanged: stopping there changes no result.
	free := 0
	for _, l := range m.R2L {
		if l == None {
			free++
		}
	}
	gained := 0
	for _, l := range order {
		if free == 0 {
			break
		}
		if m.L2R[l] == None && sc.aug.augmentFromLeft(m, l) {
			gained++
			free--
		}
	}
	sc.aug.endPass()
	return gained
}

// ExtendFromRight is ExtendFromRight with reused search buffers.
func (sc *Scratch) ExtendFromRight(g *Graph, m *Matching, order []int) int {
	sc.aug.bind(g)
	sc.aug.beginPass(len(order))
	// The mirror of ExtendFromLeft's stop: a search from a right vertex can
	// only end at a free left vertex with an edge.
	free := 0
	for l, r := range m.L2R {
		if r == None && len(g.adj[l]) > 0 {
			free++
		}
	}
	gained := 0
	for _, r := range order {
		if free == 0 {
			break
		}
		if m.R2L[r] == None && sc.aug.augmentFromRight(m, r) {
			gained++
			free--
		}
	}
	sc.aug.endPass()
	return gained
}

// PreferLowAtClass is PreferLowAtClass with reused relocation marks.
func (sc *Scratch) PreferLowAtClass(g *Graph, m *Matching, classOf []int32, class int32) int {
	a := &sc.prefer
	a.g, a.m, a.classOf, a.avoid = g, m, classOf, class
	a.seenR = ensureLen(a.seenR, g.NRight())
	return preferLowAtClass(g, m, classOf, class, a)
}
