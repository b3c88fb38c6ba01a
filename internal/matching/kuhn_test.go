package matching

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomGraph builds a random bipartite graph with the given side sizes where
// each potential edge appears with probability p.
func randomGraph(rng *rand.Rand, nl, nr int, p float64) *Graph {
	g := NewGraph(nl, nr)
	for l := 0; l < nl; l++ {
		for r := 0; r < nr; r++ {
			if rng.Float64() < p {
				g.AddEdge(l, r)
			}
		}
	}
	return g
}

// twoChoiceGraph builds a graph shaped like the scheduling instances: every
// left vertex (request) has edges to two windows of consecutive right
// vertices (slots of its two alternatives).
func twoChoiceGraph(rng *rand.Rand, nl, nRes, d int) *Graph {
	g := NewGraph(nl, nRes*d)
	for l := 0; l < nl; l++ {
		a := rng.Intn(nRes)
		b := rng.Intn(nRes - 1)
		if b >= a {
			b++
		}
		for j := 0; j < d; j++ {
			g.AddEdge(l, a*d+j)
		}
		for j := 0; j < d; j++ {
			g.AddEdge(l, b*d+j)
		}
	}
	return g
}

// GreedyMaximal computes a maximal (not necessarily maximum) matching by a
// single pass over left vertices in index order, taking the first free right
// neighbor. By the standard argument its size is at least half the maximum;
// TestGreedyMaximalAtLeastHalf asserts that invariant.
func GreedyMaximal(g *Graph) *Matching {
	m := NewMatching(g.NLeft(), g.NRight())
	for l := 0; l < g.NLeft(); l++ {
		for _, r := range g.adj[l] {
			if m.R2L[r] == None {
				m.Match(l, int(r))
				break
			}
		}
	}
	return m
}

// IsMaximal reports whether m is maximal in g: no edge joins a free left
// vertex to a free right vertex.
func IsMaximal(g *Graph, m *Matching) bool {
	for l := 0; l < g.NLeft(); l++ {
		if m.L2R[l] != None {
			continue
		}
		for _, r := range g.adj[l] {
			if m.R2L[r] == None {
				return false
			}
		}
	}
	return true
}

func TestKuhnEmptyGraph(t *testing.T) {
	g := NewGraph(3, 4)
	m := Kuhn(g)
	if m.Size() != 0 {
		t.Fatalf("empty graph matched %d pairs", m.Size())
	}
	if err := Verify(g, m); err != nil {
		t.Fatal(err)
	}
}

func TestKuhnZeroVertices(t *testing.T) {
	g := NewGraph(0, 0)
	if m := Kuhn(g); m.Size() != 0 {
		t.Fatalf("got %d", m.Size())
	}
	if f := MaxMatchingByFlow(g); f != 0 {
		t.Fatalf("flow got %d", f)
	}
}

func TestKuhnPerfectMatching(t *testing.T) {
	// Complete bipartite K_{5,5} has a perfect matching.
	g := NewGraph(5, 5)
	for l := 0; l < 5; l++ {
		for r := 0; r < 5; r++ {
			g.AddEdge(l, r)
		}
	}
	if got := Kuhn(g).Size(); got != 5 {
		t.Fatalf("K5,5: got %d want 5", got)
	}
}

func TestKuhnPrefersFirstListedNeighbor(t *testing.T) {
	// Deterministic tie-breaking: with no conflicts each left vertex takes
	// its first-listed neighbor. The adversarial constructions rely on this.
	g := NewGraph(2, 4)
	g.AddEdge(0, 2)
	g.AddEdge(0, 0)
	g.AddEdge(1, 3)
	g.AddEdge(1, 1)
	m := Kuhn(g)
	if m.L2R[0] != 2 || m.L2R[1] != 3 {
		t.Fatalf("expected first-listed neighbors, got %v", m.L2R)
	}
}

func TestKuhnEqualsFlowEqualsBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		nl := 1 + rng.Intn(9)
		nr := 1 + rng.Intn(9)
		g := randomGraph(rng, nl, nr, 0.3)
		want := BruteMaximumSize(g)
		if got := Kuhn(g).Size(); got != want {
			t.Fatalf("trial %d: Kuhn %d != brute %d", trial, got, want)
		}
		if got := MaxMatchingByFlow(g); got != want {
			t.Fatalf("trial %d: flow %d != brute %d", trial, got, want)
		}
	}
}

func TestKuhnEqualsFlowLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 60, 50, 0.08)
		k := Kuhn(g)
		if err := Verify(g, k); err != nil {
			t.Fatal(err)
		}
		if f := MaxMatchingByFlow(g); f != k.Size() {
			t.Fatalf("trial %d: flow %d != %d", trial, f, k.Size())
		}
	}
}

func TestKuhnTwoChoiceGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		g := twoChoiceGraph(rng, 40, 6, 4)
		k := Kuhn(g).Size()
		f := MaxMatchingByFlow(g)
		if k != f {
			t.Fatalf("trial %d: kuhn=%d flow=%d", trial, k, f)
		}
	}
}

func TestGreedyMaximalAtLeastHalf(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 1+rng.Intn(20), 1+rng.Intn(20), 0.25)
		gm := GreedyMaximal(g)
		if !IsMaximal(g, gm) {
			return false
		}
		if err := Verify(g, gm); err != nil {
			return false
		}
		return 2*gm.Size() >= MaxMatchingByFlow(g)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExtendFromLeftPreservesMatched(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		g := randomGraph(rng, 12, 12, 0.3)
		m := NewMatching(12, 12)
		// Seed with a partial greedy matching.
		for l := 0; l < 6; l++ {
			for _, r := range g.Adj(l) {
				if m.R2L[r] == None {
					m.Match(l, int(r))
					break
				}
			}
		}
		before := map[int]bool{}
		for l, r := range m.L2R {
			if r != None {
				before[l] = true
			}
		}
		order := make([]int, 12)
		for i := range order {
			order[i] = i
		}
		new(Scratch).ExtendFromLeft(g, m, order)
		for l := range before {
			if m.L2R[l] == None {
				t.Fatalf("trial %d: augmentation unmatched left %d", trial, l)
			}
		}
		if err := Verify(g, m); err != nil {
			t.Fatal(err)
		}
		if want := MaxMatchingByFlow(g); m.Size() != want {
			t.Fatalf("trial %d: extend-from-left not maximum: %d vs %d",
				trial, m.Size(), want)
		}
	}
}

func TestMatchingMatchOverwrites(t *testing.T) {
	m := NewMatching(2, 2)
	m.Match(0, 0)
	m.Match(1, 0) // steals right 0 from left 0
	if m.L2R[0] != None || m.R2L[0] != 1 {
		t.Fatalf("overwrite broken: %v %v", m.L2R, m.R2L)
	}
	m.Match(1, 1) // moves left 1 to right 1
	if m.R2L[0] != None || m.L2R[1] != 1 {
		t.Fatalf("move broken: %v %v", m.L2R, m.R2L)
	}
}

func TestMatchingCloneIndependent(t *testing.T) {
	m := NewMatching(2, 2)
	m.Match(0, 1)
	c := m.Clone()
	c.Match(1, 0)
	if m.L2R[1] != None {
		t.Fatal("clone aliases original")
	}
	if c.L2R[0] != 1 {
		t.Fatal("clone lost data")
	}
}

func TestPairsSortedByLeft(t *testing.T) {
	m := NewMatching(3, 3)
	m.Match(2, 0)
	m.Match(0, 2)
	ps := m.Pairs()
	if len(ps) != 2 || ps[0] != [2]int{0, 2} || ps[1] != [2]int{2, 0} {
		t.Fatalf("pairs wrong: %v", ps)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	g := NewGraph(2, 2)
	g.AddEdge(0, 0)
	m := NewMatching(2, 2)
	m.L2R[0] = 1 // not mutual, and not an edge
	if err := Verify(g, m); err == nil {
		t.Fatal("expected error for one-sided pointer")
	}
	m = NewMatching(2, 2)
	m.L2R[0] = 1
	m.R2L[1] = 0
	if err := Verify(g, m); err == nil {
		t.Fatal("expected error for non-edge pair")
	}
}

func ExampleScratch_ExtendFromRight() {
	// Two requests, two slots in class order: the slot greedy covers the
	// early slot even though a plain maximum matching might not.
	g := NewGraph(2, 2)
	g.AddEdge(0, 0) // request 0 can use the early slot...
	g.AddEdge(0, 1) // ...or the late one
	g.AddEdge(1, 1) // request 1 only the late one
	m := NewMatching(2, 2)
	var sc Scratch
	sc.ExtendFromRight(g, m, []int{0, 1})
	fmt.Println(m.L2R[0], m.L2R[1])
	// Output: 0 1
}

// Pairs returns the matched (left, right) pairs in ascending left order.
func (m *Matching) Pairs() [][2]int {
	var ps [][2]int
	for l, r := range m.L2R {
		if r != None {
			ps = append(ps, [2]int{l, int(r)})
		}
	}
	return ps
}
