package matching

// Scratch holds the reusable buffers of every solver in the package, so a
// caller that recomputes matchings round after round (the rescheduling
// strategies, the parallel measurement harness) reaches a steady state with
// no per-round allocation. The zero value is ready to use; buffers grow
// monotonically to the largest graph seen. A Scratch is not safe for
// concurrent use — give each goroutine (or each strategy instance) its own.
// Results depend only on the inputs, never on what the Scratch saw before.
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

// ExtendFromLeft augments m from each listed free left vertex in the given
// order. Left vertices that are already matched are skipped. It returns the
// number of successful augmentations. Matched vertices are never unmatched by
// augmentation, so any "already scheduled" invariant is preserved. Searches
// skip regions an earlier failed search of the call proved saturated (see
// augmenter); the matching is the one the unpruned search order reaches.
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

// ExtendFromRight augments m from each listed free right vertex in the given
// order, exploring left neighbors in adjacency order. It is the weight-class
// (transversal matroid) greedy of the balance routers: processing right
// vertices in descending weight order yields a maximum matching whose
// matched right set has maximum weight.
//
// Once a search from a free right fails, every left it visited is matched
// into the rights it visited, so no later search of the call can augment
// through them; they are skipped from then on (see augmenter). Under load
// most slot searches fail, so this turns the k failed searches into a
// saturated component of size s from O(k·s) visits into O(k + s), and the
// resulting matching is bit-identical to the unpruned search.
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
