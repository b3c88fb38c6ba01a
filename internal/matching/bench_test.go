package matching

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmarks for the matching substrate: the strategies spend their time in
// the weight-class greedy and its relocation searches, so their scaling
// matters for large reproductions. The offline optimum's incremental pass is
// timed in internal/offline.

func BenchmarkLexMax(b *testing.B) {
	for _, nClasses := range []int{2, 8, 32} {
		nClasses := nClasses
		b.Run(fmt.Sprintf("classes=%d", nClasses), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			g := twoChoiceGraph(rng, 5000, 32, nClasses)
			classOf := make([]int32, g.NRight())
			for r := range classOf {
				classOf[r] = int32(r % nClasses)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lexMax(g, classOf)
			}
		})
	}
}

func BenchmarkPreferLowAtClass(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := twoChoiceGraph(rng, 5000, 32, 8)
	classOf := make([]int32, g.NRight())
	for r := range classOf {
		classOf[r] = int32(r % 8)
	}
	base := lexMax(g, classOf)
	var sc Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := base.Clone()
		sc.PreferLowAtClass(g, m, classOf, 0)
	}
}

func BenchmarkMinCostMatching(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := twoChoiceGraph(rng, 1000, 16, 4)
	costs := make([]int64, g.NRight())
	for r := range costs {
		costs[r] = int64(r % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinCostMatchingLR(g, nil, costs)
	}
}

func BenchmarkSymmetricDifference(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g := twoChoiceGraph(rng, 20000, 32, 6)
	m1 := GreedyMaximal(g)
	m2 := Kuhn(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SymmetricDifference(m1, m2)
	}
}

func BenchmarkMaxProfitMatching(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := twoChoiceGraph(rng, 2000, 16, 4)
	profit := make([]int64, 2000)
	for i := range profit {
		profit[i] = int64(1 + rng.Intn(10))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxProfitMatching(g, profit)
	}
}
