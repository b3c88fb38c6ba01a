package matching

import (
	"math/rand"
	"testing"
)

func TestSymmetricDifferenceIdenticalMatchings(t *testing.T) {
	m := NewMatching(3, 3)
	m.Match(0, 1)
	m.Match(2, 0)
	if comps := SymmetricDifference(m, m.Clone()); len(comps) != 0 {
		t.Fatalf("identical matchings gave %d components", len(comps))
	}
}

func TestSymmetricDifferenceSingleAugmentingPath(t *testing.T) {
	// M1 = {(0,0)}; M2 = {(0,1),(1,0)}: difference is the path 1-0-0-1
	// (left1, right0, left0, right1), augmenting for M1.
	m1 := NewMatching(2, 2)
	m1.Match(0, 0)
	m2 := NewMatching(2, 2)
	m2.Match(0, 1)
	m2.Match(1, 0)
	comps := SymmetricDifference(m1, m2)
	if len(comps) != 1 {
		t.Fatalf("got %d components, want 1", len(comps))
	}
	c := comps[0]
	if c.Cycle {
		t.Fatal("path classified as cycle")
	}
	if c.Len() != 3 {
		t.Fatalf("path length %d want 3", c.Len())
	}
	if !AugmentingFor(&c, m1) {
		t.Fatal("path should be augmenting for m1")
	}
	if AugmentingFor(&c, m2) {
		t.Fatal("path must not be augmenting for m2")
	}
}

func TestSymmetricDifferenceCycle(t *testing.T) {
	// M1 = {(0,0),(1,1)}; M2 = {(0,1),(1,0)}: an alternating 4-cycle.
	m1 := NewMatching(2, 2)
	m1.Match(0, 0)
	m1.Match(1, 1)
	m2 := NewMatching(2, 2)
	m2.Match(0, 1)
	m2.Match(1, 0)
	comps := SymmetricDifference(m1, m2)
	if len(comps) != 1 || !comps[0].Cycle {
		t.Fatalf("expected one cycle, got %+v", comps)
	}
	if AugmentingFor(&comps[0], m1) {
		t.Fatal("cycle is never augmenting")
	}
}

// countAugmenting returns how many components are augmenting for m.
func countAugmenting(comps []DiffComponent, m *Matching) int {
	n := 0
	for i := range comps {
		if AugmentingFor(&comps[i], m) {
			n++
		}
	}
	return n
}

func TestSymmetricDifferenceCardinalityIdentity(t *testing.T) {
	// For any two matchings: |M2| - |M1| = (#paths augmenting for M1) -
	// (#paths augmenting for M2). This is the accounting identity the
	// paper's upper-bound proofs rest on.
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 300; trial++ {
		nl := 1 + rng.Intn(10)
		nr := 1 + rng.Intn(10)
		g := randomGraph(rng, nl, nr, 0.35)
		m1 := GreedyMaximal(g)
		m2 := Kuhn(g)
		comps := SymmetricDifference(m1, m2)
		lhs := m2.Size() - m1.Size()
		rhs := countAugmenting(comps, m1) - countAugmenting(comps, m2)
		if lhs != rhs {
			t.Fatalf("trial %d: |M2|-|M1|=%d but aug diff=%d", trial, lhs, rhs)
		}
	}
}

func TestSymmetricDifferenceComponentsAreDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		nl := 1 + rng.Intn(12)
		nr := 1 + rng.Intn(12)
		g := randomGraph(rng, nl, nr, 0.3)
		m1 := GreedyMaximal(g)
		// A second, different matching: Kuhn from reversed order.
		m2 := NewMatching(nl, nr)
		order := make([]int, nl)
		for i := range order {
			order[i] = nl - 1 - i
		}
		new(Scratch).ExtendFromLeft(g, m2, order)

		comps := SymmetricDifference(m1, m2)
		seenL := map[int]bool{}
		seenR := map[int]bool{}
		edges := 0
		for _, c := range comps {
			edges += c.Len()
			for i, v := range c.Verts {
				if c.Left[i] {
					if seenL[v] {
						t.Fatalf("trial %d: left %d in two components", trial, v)
					}
					seenL[v] = true
				} else {
					if seenR[v] {
						t.Fatalf("trial %d: right %d in two components", trial, v)
					}
					seenR[v] = true
				}
				// Sides must alternate along the component.
				if i > 0 && c.Left[i] == c.Left[i-1] {
					t.Fatalf("trial %d: sides do not alternate", trial)
				}
			}
		}
		// Edge count of the difference must match sum of component lengths.
		want := 0
		for l := 0; l < nl; l++ {
			r1, r2 := m1.L2R[l], m2.L2R[l]
			if r1 != r2 {
				if r1 != None {
					want++
				}
				if r2 != None {
					want++
				}
			}
		}
		if edges != want {
			t.Fatalf("trial %d: components cover %d edges, difference has %d", trial, edges, want)
		}
	}
}

func TestAugmentingForTrivialCases(t *testing.T) {
	m := NewMatching(1, 1)
	c := DiffComponent{Verts: []int{0}, Left: []bool{true}}
	if AugmentingFor(&c, m) {
		t.Fatal("single vertex cannot be augmenting")
	}
}
