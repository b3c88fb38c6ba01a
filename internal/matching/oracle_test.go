package matching

// refAugmenter is the augmenting search without saturated-region pruning:
// every search re-walks whatever it reaches, however often earlier searches
// of the same pass failed there. It is the differential oracle for the pruned
// augmenter, which must reproduce its matchings bit for bit.
type refAugmenter struct {
	g     *Graph
	stamp int
	seenL []int
	seenR []int
}

func newRefAugmenter(g *Graph) *refAugmenter {
	return &refAugmenter{g: g, seenL: make([]int, g.NLeft()), seenR: make([]int, g.NRight())}
}

func refKuhn(g *Graph) *Matching {
	m := NewMatching(g.NLeft(), g.NRight())
	a := newRefAugmenter(g)
	for l := 0; l < g.NLeft(); l++ {
		a.augmentFromLeft(m, l)
	}
	return m
}

func refExtendFromLeft(g *Graph, m *Matching, order []int) int {
	a := newRefAugmenter(g)
	gained := 0
	for _, l := range order {
		if m.L2R[l] == None {
			if a.augmentFromLeft(m, l) {
				gained++
			}
		}
	}
	return gained
}

func refExtendFromRight(g *Graph, m *Matching, order []int) int {
	a := newRefAugmenter(g)
	gained := 0
	for _, r := range order {
		if m.R2L[r] == None {
			if a.augmentFromRight(m, r) {
				gained++
			}
		}
	}
	return gained
}

func (a *refAugmenter) augmentFromLeft(m *Matching, l int) bool {
	a.stamp++
	return a.dfsLeft(m, int32(l))
}

func (a *refAugmenter) dfsLeft(m *Matching, l int32) bool {
	a.seenL[l] = a.stamp
	for _, r := range a.g.adj[l] {
		if m.R2L[r] == None && a.seenR[r] != a.stamp {
			a.seenR[r] = a.stamp
			m.Match(int(l), int(r))
			return true
		}
	}
	for _, r := range a.g.adj[l] {
		if a.seenR[r] == a.stamp {
			continue
		}
		a.seenR[r] = a.stamp
		if a.dfsLeft(m, m.R2L[r]) {
			m.Match(int(l), int(r))
			return true
		}
	}
	return false
}

func (a *refAugmenter) augmentFromRight(m *Matching, r int) bool {
	a.stamp++
	return a.dfsRight(m, int32(r))
}

func (a *refAugmenter) dfsRight(m *Matching, r int32) bool {
	a.seenR[r] = a.stamp
	for _, l := range a.g.RAdj(int(r)) {
		if m.L2R[l] == None && a.seenL[l] != a.stamp {
			a.seenL[l] = a.stamp
			m.Match(int(l), int(r))
			return true
		}
	}
	for _, l := range a.g.RAdj(int(r)) {
		if a.seenL[l] == a.stamp {
			continue
		}
		a.seenL[l] = a.stamp
		if a.dfsRight(m, m.L2R[l]) {
			m.Match(int(l), int(r))
			return true
		}
	}
	return false
}
