package matching

import (
	"math/rand"
	"testing"
)

func TestMaxProfitMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(130))
	for trial := 0; trial < 300; trial++ {
		nl := 1 + rng.Intn(7)
		nr := 1 + rng.Intn(7)
		g := randomGraph(rng, nl, nr, 0.35)
		profit := make([]int64, nl)
		for i := range profit {
			profit[i] = int64(1 + rng.Intn(20))
		}
		m := MaxProfitMatching(g, profit)
		if err := Verify(g, m); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := ProfitOf(m, profit)
		want := BruteMaxProfit(g, profit)
		if got != want {
			t.Fatalf("trial %d: profit %d want %d", trial, got, want)
		}
	}
}

func TestMaxProfitEqualProfitsIsMaximumCardinality(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng, 12, 12, 0.25)
		profit := make([]int64, 12)
		for i := range profit {
			profit[i] = 3
		}
		m := MaxProfitMatching(g, profit)
		if m.Size() != MaxMatchingByFlow(g) {
			t.Fatalf("trial %d: equal profits should give maximum cardinality", trial)
		}
	}
}

func TestMaxProfitSkipsUnprofitableDisplacement(t *testing.T) {
	// One slot, two requests: the heavy one wins regardless of order.
	g := NewGraph(2, 1)
	g.AddEdge(0, 0)
	g.AddEdge(1, 0)
	m := MaxProfitMatching(g, []int64{1, 10})
	if m.R2L[0] != 1 {
		t.Fatalf("slot went to the light request: %v", m.R2L)
	}
	// Heavy first in index order too.
	m2 := MaxProfitMatching(g, []int64{10, 1})
	if m2.R2L[0] != 0 {
		t.Fatalf("slot went to the light request: %v", m2.R2L)
	}
}

func TestMaxProfitMayLeaveVerticesUnmatchedNever(t *testing.T) {
	// With positive profits, any free (left, right) pair would increase
	// profit, so the result must be maximal.
	rng := rand.New(rand.NewSource(132))
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng, 8, 8, 0.3)
		profit := make([]int64, 8)
		for i := range profit {
			profit[i] = int64(1 + rng.Intn(5))
		}
		m := MaxProfitMatching(g, profit)
		if !IsMaximal(g, m) {
			t.Fatalf("trial %d: positive profits must yield a maximal matching", trial)
		}
	}
}
