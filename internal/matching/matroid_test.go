package matching

import (
	"math/rand"
	"testing"
)

// randomClasses assigns each right vertex a class in [0, nClasses).
func randomClasses(rng *rand.Rand, nr, nClasses int) []int32 {
	cs := make([]int32, nr)
	for i := range cs {
		cs[i] = int32(rng.Intn(nClasses))
	}
	return cs
}

func lexCompare(a, b []int) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// TestLexMaxMatchesBruteForce checks the greedy the balance routers run: one
// Scratch.ExtendFromRight pass from an empty matching over the rights in
// (class, index) order reaches the maximum size and the lexicographically
// maximal class vector that exhaustive search finds. The routers' own slot
// order is checked to be (class, index)-sorted in internal/strategies.
func TestLexMaxMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 300; trial++ {
		nl := 1 + rng.Intn(7)
		nr := 1 + rng.Intn(7)
		nClasses := 1 + rng.Intn(4)
		g := randomGraph(rng, nl, nr, 0.35)
		classOf := randomClasses(rng, nr, nClasses)

		got := lexMax(g, classOf)
		if err := Verify(g, got); err != nil {
			t.Fatal(err)
		}
		want := BruteLexMax(g, classOf)
		if got.Size() != want.Size() {
			t.Fatalf("trial %d: size %d != brute %d", trial, got.Size(), want.Size())
		}
		gv := classCounts(got, classOf, nClasses)
		wv := classCounts(want, classOf, nClasses)
		if lexCompare(gv, wv) != 0 {
			t.Fatalf("trial %d: class vector %v != brute %v", trial, gv, wv)
		}
	}
}

func TestLexMaxIsMaximumCardinality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(rng, 25, 25, 0.15)
		classOf := randomClasses(rng, 25, 5)
		if lexMax(g, classOf).Size() != MaxMatchingByFlow(g) {
			t.Fatalf("trial %d: slot greedy not maximum", trial)
		}
	}
}

func TestLexMaxExtendPreservesMatchedRights(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		g := randomGraph(rng, 10, 10, 0.3)
		classOf := randomClasses(rng, 10, 3)
		m := GreedyMaximal(g)
		matchedR := map[int]bool{}
		for r, l := range m.R2L {
			if l != None {
				matchedR[r] = true
			}
		}
		new(Scratch).ExtendFromRight(g, m, classOrder(classOf))
		for r := range matchedR {
			if m.R2L[r] == None {
				t.Fatalf("trial %d: extension freed right %d", trial, r)
			}
		}
		if err := Verify(g, m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCoverLeftRestoresCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		nl := 2 + rng.Intn(10)
		nr := 2 + rng.Intn(10)
		g := randomGraph(rng, nl, nr, 0.3)
		// cover: some matching (inherited schedule).
		cover := GreedyMaximal(g)
		// Drop a few cover pairs at random so cover is a sub-matching.
		for l := 0; l < nl; l++ {
			if cover.L2R[l] != None && rng.Intn(3) == 0 {
				cover.UnmatchLeft(l)
			}
		}
		classOf := randomClasses(rng, nr, 3)
		m := lexMax(g, classOf)
		beforeSize := m.Size()
		beforeVec := classCounts(m, classOf, 3)

		CoverLeft(g, m, cover)

		if err := Verify(g, m); err != nil {
			t.Fatal(err)
		}
		if m.Size() != beforeSize {
			t.Fatalf("trial %d: CoverLeft changed size %d -> %d", trial, beforeSize, m.Size())
		}
		afterVec := classCounts(m, classOf, 3)
		if lexCompare(beforeVec, afterVec) != 0 {
			t.Fatalf("trial %d: CoverLeft changed slot classes %v -> %v", trial, beforeVec, afterVec)
		}
		for l := 0; l < nl; l++ {
			if cover.L2R[l] != None && m.L2R[l] == None {
				t.Fatalf("trial %d: left %d covered by cover but free in m", trial, l)
			}
		}
	}
}

func TestCoverLeftNoopWhenAlreadyCovered(t *testing.T) {
	g := NewGraph(2, 2)
	g.AddEdge(0, 0)
	g.AddEdge(1, 1)
	m := Kuhn(g)
	cover := m.Clone()
	CoverLeft(g, m, cover)
	if m.L2R[0] != 0 || m.L2R[1] != 1 {
		t.Fatalf("noop cover changed matching: %v", m.L2R)
	}
}
