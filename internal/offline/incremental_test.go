package offline

import (
	"math/rand"
	"testing"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/strategies"
	"reqsched/internal/workload"
)

// checkIncremental asserts that Optimum, the incremental pass sealed at
// clean cuts, equals the Dinic max-flow oracle on the full graph.
func checkIncremental(t *testing.T, name string, tr *core.Trace) {
	t.Helper()
	if got, want := Optimum(tr), optimumByFlow(tr); got != want {
		t.Fatalf("%s: Optimum = %d, flow = %d", name, got, want)
	}
}

func TestOptimumIncrementalEqualsOptimumOnAdversaries(t *testing.T) {
	cons := []adversary.Construction{
		adversary.Fix(2, 6),
		adversary.Fix(4, 3),
		adversary.Current(3, 3),
		adversary.CurrentFactorial(3, 2),
		adversary.FixBalance(2, 6),
		adversary.FixBalance(4, 3),
		adversary.Eager(2, 6),
		adversary.Eager(4, 3),
		adversary.Balance(2, 3, 3),
		adversary.Balance(3, 2, 2),
		adversary.UniversalAnyD(4, 3),
		adversary.UniversalAnyD(5, 2),
		adversary.LocalFix(3, 4),
		adversary.EDFWorstCase(3, 4),
		adversary.Universal(3, 3),
		adversary.Universal(6, 2),
	}
	for _, c := range cons {
		tr := c.Trace
		if tr == nil {
			_, tr = core.RunAdaptive(strategies.NewFix(), c.Source)
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s: adaptive trace invalid: %v", c.Name, err)
			}
		}
		checkIncremental(t, c.Name, tr)
	}
}

func TestOptimumIncrementalEqualsOptimumRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 150; i++ {
		tr := gappedTrace(rng, 2+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(4), 5)
		checkIncremental(t, "gapped", tr)
	}
	for i := 0; i < 150; i++ {
		tr := randomTrace(rng, 2+rng.Intn(5), 1+rng.Intn(4), 1+rng.Intn(8), 6)
		checkIncremental(t, "dense", tr)
	}
	for seed := int64(0); seed < 100; seed++ {
		cfg := workload.Config{N: 4, D: 3, Rounds: 10, Rate: 3, Seed: seed}
		checkIncremental(t, "uniform", workload.Uniform(cfg))
	}
	for seed := int64(0); seed < 100; seed++ {
		cfg := workload.Config{N: 4, D: 2, Rounds: 12, Rate: 2, Seed: seed}
		checkIncremental(t, "bursty", workload.Bursty(cfg, 3, 4, 5))
	}
}

// TestIncrementalOptSealIsolation pins that traces fed through one reused
// tracker are independent: the optima Add seals at clean cuts plus the final
// Seal sum to exactly that trace's optimum.
func TestIncrementalOptSealIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	o := NewIncrementalOpt(5)
	for seg := 0; seg < 50; seg++ {
		tr := randomTrace(rng, 5, 1+rng.Intn(3), 1+rng.Intn(6), 4)
		got := 0
		for _, r := range tr.Requests() {
			v, _ := o.Add(r.Arrive, r.D, r.Alts)
			got += v
		}
		if got, want := got+o.Seal(), optimumByFlow(tr); got != want {
			t.Fatalf("segment %d: sealed %d, flow %d", seg, got, want)
		}
	}
}

// BenchmarkOptimumVsKuhn times Optimum's incremental pass against Kuhn's
// search over the full graph (OptimumMatching) on a gapped bursty trace.
func BenchmarkOptimumVsKuhn(b *testing.B) {
	tr := workload.Bursty(workload.Config{N: 16, D: 4, Rounds: 4000, Rate: 0, Seed: 5}, 4, 8, 50)
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Optimum(tr)
		}
	})
	b.Run("kuhn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			OptimumMatching(tr)
		}
	})
}
