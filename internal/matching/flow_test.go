package matching

import (
	"math/rand"
	"testing"
)

func TestDinicSimpleNetwork(t *testing.T) {
	// s=0, t=3; two disjoint paths of capacity 2 and 3.
	f := NewFlowNetwork(4)
	f.AddEdge(0, 1, 2)
	f.AddEdge(1, 3, 2)
	f.AddEdge(0, 2, 3)
	f.AddEdge(2, 3, 3)
	if got := f.MaxFlow(0, 3); got != 5 {
		t.Fatalf("maxflow %d want 5", got)
	}
}

func TestDinicBottleneck(t *testing.T) {
	// s -> a -> b -> t where the middle edge limits flow.
	f := NewFlowNetwork(4)
	e0 := f.AddEdge(0, 1, 10)
	e1 := f.AddEdge(1, 2, 1)
	e2 := f.AddEdge(2, 3, 10)
	if got := f.MaxFlow(0, 3); got != 1 {
		t.Fatalf("maxflow %d want 1", got)
	}
	if f.Flow(e0) != 1 || f.Flow(e1) != 1 || f.Flow(e2) != 1 {
		t.Fatalf("edge flows %d %d %d", f.Flow(e0), f.Flow(e1), f.Flow(e2))
	}
}

func TestDinicDisconnected(t *testing.T) {
	f := NewFlowNetwork(4)
	f.AddEdge(0, 1, 5)
	f.AddEdge(2, 3, 5)
	if got := f.MaxFlow(0, 3); got != 0 {
		t.Fatalf("maxflow %d want 0", got)
	}
}

func TestDinicRequiresReverseEdgeReasoning(t *testing.T) {
	// Classic diamond where a greedy path must be partially undone via the
	// residual edge: s->a->b->t chosen first blocks the optimum unless the
	// algorithm can reroute.
	f := NewFlowNetwork(4)
	f.AddEdge(0, 1, 1) // s->a
	f.AddEdge(0, 2, 1) // s->b
	f.AddEdge(1, 2, 1) // a->b
	f.AddEdge(1, 3, 1) // a->t
	f.AddEdge(2, 3, 1) // b->t
	if got := f.MaxFlow(0, 3); got != 2 {
		t.Fatalf("maxflow %d want 2", got)
	}
}

func TestMinCostMaxFlowPrefersCheapPath(t *testing.T) {
	f := NewCostFlowNetwork(4)
	cheap := f.AddEdge(0, 1, 1, 1)
	f.AddEdge(1, 3, 1, 1)
	exp := f.AddEdge(0, 2, 1, 10)
	f.AddEdge(2, 3, 1, 10)
	flow, cost := f.minCostMaxFlow(0, 3)
	if flow != 2 || cost != 22 {
		t.Fatalf("flow=%d cost=%d want 2, 22", flow, cost)
	}
	if f.Flow(cheap) != 1 || f.Flow(exp) != 1 {
		t.Fatal("both paths should be saturated at max flow")
	}
}

func TestMinCostMaxFlowChoosesCheapAtEqualFlow(t *testing.T) {
	// Two parallel unit paths, only one unit of demand downstream: the cheap
	// one must carry the flow.
	f := NewCostFlowNetwork(5)
	cheap := f.AddEdge(0, 1, 1, 1)
	exp := f.AddEdge(0, 2, 1, 5)
	f.AddEdge(1, 3, 1, 0)
	f.AddEdge(2, 3, 1, 0)
	f.AddEdge(3, 4, 1, 0) // sink bottleneck: only one unit fits
	flow, cost := f.minCostMaxFlow(0, 4)
	if flow != 1 || cost != 1 {
		t.Fatalf("flow=%d cost=%d want 1, 1", flow, cost)
	}
	if f.Flow(cheap) != 1 || f.Flow(exp) != 0 {
		t.Fatal("flow must use the cheap path")
	}
}

func TestMinCostMatchingCardinalityEqualsFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(rng, 15, 15, 0.2)
		costs := make([]int64, 15)
		for i := range costs {
			costs[i] = int64(rng.Intn(10))
		}
		m := MinCostMatchingLR(g, nil, costs)
		if err := Verify(g, m); err != nil {
			t.Fatal(err)
		}
		if m.Size() != MaxMatchingByFlow(g) {
			t.Fatalf("trial %d: MCMF matching not maximum", trial)
		}
	}
}

func TestMinCostMatchingOptimalCost(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		nl := 1 + rng.Intn(6)
		nr := 1 + rng.Intn(6)
		g := randomGraph(rng, nl, nr, 0.4)
		costs := make([]int64, nr)
		for i := range costs {
			costs[i] = int64(rng.Intn(20))
		}
		m := MinCostMatchingLR(g, nil, costs)
		var got int64
		for r, l := range m.R2L {
			if l != None {
				got += costs[r]
			}
		}
		want := BruteMinRightCost(g, costs)
		if m.Size() == 0 && want == int64(1)<<62 {
			continue // empty graph: brute reports +inf for max size 0 matched trivially
		}
		if got != want {
			t.Fatalf("trial %d: cost %d want %d", trial, got, want)
		}
	}
}

func TestMinCostMatchingReproducesLexMaxOnSmall(t *testing.T) {
	// Encode class weights as costs (earlier class cheaper, dominating) and
	// check MCMF reproduces the slot greedy's class counts.
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 100; trial++ {
		nl := 1 + rng.Intn(6)
		nr := 1 + rng.Intn(6)
		nClasses := 1 + rng.Intn(3)
		g := randomGraph(rng, nl, nr, 0.4)
		classOf := randomClasses(rng, nr, nClasses)
		// Lexicographic maximization of (X_0, X_1, ...) at fixed cardinality
		// equals minimizing sum of costs with cost_c = B^K - B^(K-c) where
		// B > nr: each class's weight dominates everything below it, so the
		// min-cost solution cannot trade one early slot for several late ones.
		base := int64(nr + 1)
		pow := func(e int) int64 {
			p := int64(1)
			for i := 0; i < e; i++ {
				p *= base
			}
			return p
		}
		costs := make([]int64, nr)
		for r, c := range classOf {
			costs[r] = pow(nClasses) - pow(nClasses-int(c))
		}
		m1 := MinCostMatchingLR(g, nil, costs)
		m2 := lexMax(g, classOf)
		v1 := classCounts(m1, classOf, nClasses)
		v2 := classCounts(m2, classOf, nClasses)
		if m1.Size() != m2.Size() || lexCompare(v1, v2) != 0 {
			t.Fatalf("trial %d: mcmf %v size %d vs lexmax %v size %d",
				trial, v1, m1.Size(), v2, m2.Size())
		}
	}
}
