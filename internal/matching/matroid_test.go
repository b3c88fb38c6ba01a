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

func padTo(v []int, n int) []int {
	for len(v) < n {
		v = append(v, 0)
	}
	return v
}

func TestLexMaxMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 300; trial++ {
		nl := 1 + rng.Intn(7)
		nr := 1 + rng.Intn(7)
		nClasses := 1 + rng.Intn(4)
		g := randomGraph(rng, nl, nr, 0.35)
		classOf := randomClasses(rng, nr, nClasses)

		got := LexMax(g, classOf)
		if err := Verify(g, got); err != nil {
			t.Fatal(err)
		}
		want := BruteLexMax(g, classOf)
		if got.Size() != want.Size() {
			t.Fatalf("trial %d: size %d != brute %d", trial, got.Size(), want.Size())
		}
		gv := padTo(ClassCounts(got, classOf), nClasses)
		wv := padTo(ClassCounts(want, classOf), nClasses)
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
		if LexMax(g, classOf).Size() != MaxMatchingByFlow(g) {
			t.Fatalf("trial %d: LexMax not maximum", trial)
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
		LexMaxExtend(g, m, classOf)
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
		m := LexMax(g, classOf)
		beforeSize := m.Size()
		beforeVec := ClassCounts(m, classOf)

		CoverLeft(g, m, cover)

		if err := Verify(g, m); err != nil {
			t.Fatal(err)
		}
		if m.Size() != beforeSize {
			t.Fatalf("trial %d: CoverLeft changed size %d -> %d", trial, beforeSize, m.Size())
		}
		afterVec := ClassCounts(m, classOf)
		if lexCompare(padTo(beforeVec, 3), padTo(afterVec, 3)) != 0 {
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

func TestRightsByClassStableCountingSort(t *testing.T) {
	classOf := []int32{2, 0, 1, 0, 2, 1}
	got := rightsByClass(classOf)
	want := []int{1, 3, 2, 5, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v want %v", got, want)
		}
	}
}

func TestClassCounts(t *testing.T) {
	m := NewMatching(3, 4)
	m.Match(0, 0)
	m.Match(1, 3)
	classOf := []int32{0, 0, 1, 1}
	counts := ClassCounts(m, classOf)
	if counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("counts %v", counts)
	}
}
