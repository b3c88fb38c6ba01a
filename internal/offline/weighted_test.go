package offline

import (
	"math/rand"
	"testing"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/strategies"
	"reqsched/internal/workload"
)

// checkWeighted asserts that both weighted parallel solvers agree exactly
// with their monolithic counterparts for several worker counts: identical
// max profit, identical (unique) minimum latency, and a min-latency log that
// is a valid schedule of maximum cardinality whose recomputed latency matches
// the reported total.
func checkWeighted(t *testing.T, name string, tr *core.Trace) {
	t.Helper()
	wantProfit := MaxProfit(tr)
	wantLog, wantLat := OptimumMinLatency(tr)
	for _, workers := range []int{1, 2, 4, 8} {
		if got := MaxProfitParallel(tr, workers); got != wantProfit {
			t.Fatalf("%s: MaxProfitParallel(workers=%d) = %d, MaxProfit = %d",
				name, workers, got, wantProfit)
		}
		log, lat := OptimumMinLatencyParallel(tr, workers)
		if lat != wantLat {
			t.Fatalf("%s: OptimumMinLatencyParallel(workers=%d) latency %d, OptimumMinLatency %d",
				name, workers, lat, wantLat)
		}
		if len(log) != len(wantLog) {
			t.Fatalf("%s: parallel min-latency schedule serves %d, monolithic %d",
				name, len(log), len(wantLog))
		}
		if err := core.ValidateLog(tr, log); err != nil {
			t.Fatalf("%s: parallel min-latency log invalid (workers=%d): %v", name, workers, err)
		}
		sum := 0
		for _, f := range log {
			sum += f.Round - f.Req.Arrive
		}
		if sum != lat {
			t.Fatalf("%s: log latency %d != reported %d (workers=%d)", name, sum, lat, workers)
		}
	}
}

func TestWeightedParallelEqualsMonolithicOnAdversaries(t *testing.T) {
	// Every Table 1 construction family, unweighted and with harmonic weights
	// grafted on (the adversary shapes stress the segmentation; the weights
	// stress the objectives).
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
			// Adaptive constructions generate their trace during a run.
			_, tr = core.RunAdaptive(strategies.NewFix(), c.Source)
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s: adaptive trace invalid: %v", c.Name, err)
			}
		}
		checkWeighted(t, c.Name, tr)
		checkWeighted(t, c.Name+"+weights", workload.WithWeights(tr, 8, 3))
	}
}

func TestWeightedParallelEqualsMonolithicRandom(t *testing.T) {
	// >= 1000 seeded weighted workloads across the same shapes as the
	// cardinality property test: bursty multi-segment, dense single-segment,
	// single-choice, and generator-family traces.
	rng := rand.New(rand.NewSource(17))
	trials := 0
	weighted := func(tr *core.Trace) *core.Trace {
		return workload.WithWeights(tr, 1+rng.Intn(9), rng.Int63())
	}
	for seed := int64(0); seed < 250; seed++ {
		tr := weighted(gappedTrace(rng, 2+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(4), 5))
		checkWeighted(t, "gapped", tr)
		trials++
	}
	for seed := int64(0); seed < 250; seed++ {
		tr := weighted(randomTrace(rng, 2+rng.Intn(5), 1+rng.Intn(4), 1+rng.Intn(8), 6))
		checkWeighted(t, "dense", tr)
		trials++
	}
	for seed := int64(0); seed < 250; seed++ {
		tr := weighted(randomSingleChoiceTrace(rng, 1+rng.Intn(4), 1+rng.Intn(5), 1+rng.Intn(8), 4))
		checkWeighted(t, "single-choice", tr)
		trials++
	}
	for seed := int64(0); seed < 150; seed++ {
		cfg := workload.Config{N: 4, D: 3, Rounds: 10, Rate: 3, Seed: seed}
		checkWeighted(t, "uniform", weighted(workload.Uniform(cfg)))
		trials++
	}
	for seed := int64(0); seed < 150; seed++ {
		cfg := workload.Config{N: 4, D: 2, Rounds: 12, Rate: 2, Seed: seed}
		checkWeighted(t, "bursty", weighted(workload.Bursty(cfg, 3, 4, 5)))
		trials++
	}
	if trials < 1000 {
		t.Fatalf("only %d trials, want >= 1000", trials)
	}
}

func TestWeightedParallelUnweightedConsistency(t *testing.T) {
	// On unweighted traces profit degenerates to cardinality, and the
	// min-latency schedule must still have maximum cardinality.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		tr := gappedTrace(rng, 2+rng.Intn(3), 1+rng.Intn(3), 2+rng.Intn(3), 4)
		opt := Optimum(tr)
		if got := MaxProfitParallel(tr, 4); got != opt {
			t.Fatalf("trial %d: unweighted MaxProfitParallel %d != Optimum %d", trial, got, opt)
		}
		log, _ := OptimumMinLatencyParallel(tr, 4)
		if len(log) != opt {
			t.Fatalf("trial %d: min-latency schedule serves %d, Optimum %d", trial, len(log), opt)
		}
	}
}

func TestWeightedParallelEmptyAndDegenerate(t *testing.T) {
	empty := core.NewBuilder(3, 2).Build()
	if got := MaxProfitParallel(empty, 4); got != 0 {
		t.Fatalf("empty trace profit: %d", got)
	}
	if log, lat := OptimumMinLatencyParallel(empty, 4); len(log) != 0 || lat != 0 {
		t.Fatalf("empty trace min latency: %d fulfillments, latency %d", len(log), lat)
	}
	b := core.NewBuilder(1, 1)
	b.Add(0, 0)
	one := b.Build()
	if got := MaxProfitParallel(one, 8); got != 1 {
		t.Fatalf("one request profit: %d", got)
	}
	if log, lat := OptimumMinLatencyParallel(one, 8); len(log) != 1 || lat != 0 {
		t.Fatalf("one request min latency: %d fulfillments, latency %d", len(log), lat)
	}
}
