package offline

import (
	"math/rand"
	"testing"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/strategies"
	"reqsched/internal/workload"
)

// gappedTrace builds a random two-choice trace with quiet stretches long
// enough that SegmentTrace finds clean cuts.
func gappedTrace(rng *rand.Rand, n, d, bursts, perBurst int) *core.Trace {
	b := core.NewBuilder(n, d)
	t := 0
	for burst := 0; burst < bursts; burst++ {
		for i := 0; i < 1+rng.Intn(perBurst); i++ {
			a := rng.Intn(n)
			c := rng.Intn(n - 1)
			if c >= a {
				c++
			}
			b.Add(t+rng.Intn(2), a, c)
		}
		t += 2 + d + rng.Intn(3) // past every deadline of the burst
	}
	return b.Build()
}

// checkParallel asserts OptimumParallel == Optimum for several worker counts.
func checkParallel(t *testing.T, name string, tr *core.Trace) {
	t.Helper()
	want := Optimum(tr)
	for _, workers := range []int{1, 2, 4, 8} {
		if got := OptimumParallel(tr, workers); got != want {
			t.Fatalf("%s: OptimumParallel(workers=%d) = %d, Optimum = %d",
				name, workers, got, want)
		}
	}
}

func TestOptimumParallelEqualsOptimumOnAdversaries(t *testing.T) {
	// Every Table 1 construction family, fixed and adaptive.
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
		checkParallel(t, c.Name, tr)
	}
}

func TestOptimumParallelEqualsOptimumRandom(t *testing.T) {
	// >= 1000 seeded workloads across every shape the decomposition must
	// handle: bursty multi-segment, dense single-segment, single-choice with
	// mixed deadlines, and generator-family traces.
	rng := rand.New(rand.NewSource(7))
	trials := 0
	for seed := int64(0); seed < 250; seed++ {
		tr := gappedTrace(rng, 2+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(4), 5)
		checkParallel(t, "gapped", tr)
		trials++
	}
	for seed := int64(0); seed < 250; seed++ {
		tr := randomTrace(rng, 2+rng.Intn(5), 1+rng.Intn(4), 1+rng.Intn(8), 6)
		checkParallel(t, "dense", tr)
		trials++
	}
	for seed := int64(0); seed < 250; seed++ {
		tr := randomSingleChoiceTrace(rng, 1+rng.Intn(4), 1+rng.Intn(5), 1+rng.Intn(8), 4)
		checkParallel(t, "single-choice", tr)
		trials++
	}
	for seed := int64(0); seed < 150; seed++ {
		cfg := workload.Config{N: 4, D: 3, Rounds: 10, Rate: 3, Seed: seed}
		checkParallel(t, "uniform", workload.Uniform(cfg))
		trials++
	}
	for seed := int64(0); seed < 150; seed++ {
		cfg := workload.Config{N: 4, D: 2, Rounds: 12, Rate: 2, Seed: seed}
		checkParallel(t, "bursty", workload.Bursty(cfg, 3, 4, 5))
		trials++
	}
	if trials < 1000 {
		t.Fatalf("only %d trials, want >= 1000", trials)
	}
}

func TestOptimumParallelSingleSegmentFallsBackToComponents(t *testing.T) {
	// All windows overlap (everything arrives at round 0), so no clean time
	// cut exists; the components fallback must still match.
	b := core.NewBuilder(6, 4)
	for i := 0; i < 20; i++ {
		b.Add(0, i%6, (i+1)%6)
	}
	tr := b.Build()
	if segs := SegmentTrace(tr); len(segs) != 1 {
		t.Fatalf("expected one time segment, got %d", len(segs))
	}
	checkParallel(t, "all-overlapping", tr)
}

func TestComponentsSplitsResourceDisjointPopulations(t *testing.T) {
	// Two request populations on disjoint resource sets, fully overlapping in
	// time: time cuts see one segment, the slot graph has two components.
	b := core.NewBuilder(4, 3)
	for i := 0; i < 5; i++ {
		b.Add(0, 0, 1)
		b.Add(0, 2, 3)
	}
	tr := b.Build()
	if segs := SegmentTrace(tr); len(segs) != 1 {
		t.Fatalf("expected one time segment, got %d", len(segs))
	}
	comps := Components(tr)
	if len(comps) != 2 {
		t.Fatalf("expected 2 components, got %d", len(comps))
	}
	total := 0
	for _, c := range comps {
		total += len(c.Reqs)
	}
	if total != tr.NumRequests() {
		t.Fatalf("components hold %d requests, trace has %d", total, tr.NumRequests())
	}
	checkParallel(t, "resource-disjoint", tr)
}

func TestSegmentTraceInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		tr := gappedTrace(rng, 2+rng.Intn(3), 1+rng.Intn(3), 2+rng.Intn(3), 4)
		segs := SegmentTrace(tr)
		seen := 0
		prevHi := -1
		for _, seg := range segs {
			if seg.Lo <= prevHi {
				t.Fatalf("trial %d: segment [%d,%d] overlaps previous (hi %d)",
					trial, seg.Lo, seg.Hi, prevHi)
			}
			prevHi = seg.Hi
			for _, r := range seg.Reqs {
				if r.Arrive < seg.Lo || r.Deadline() > seg.Hi {
					t.Fatalf("trial %d: request %d window [%d,%d] outside segment [%d,%d]",
						trial, r.ID, r.Arrive, r.Deadline(), seg.Lo, seg.Hi)
				}
				seen++
			}
		}
		if seen != tr.NumRequests() {
			t.Fatalf("trial %d: segments hold %d requests, trace has %d",
				trial, seen, tr.NumRequests())
		}
	}
}

func TestOptimumParallelEmptyAndDegenerate(t *testing.T) {
	empty := core.NewBuilder(3, 2).Build()
	if got := OptimumParallel(empty, 4); got != 0 {
		t.Fatalf("empty trace: %d", got)
	}
	b := core.NewBuilder(1, 1)
	b.Add(0, 0)
	if got := OptimumParallel(b.Build(), 8); got != 1 {
		t.Fatalf("one request: %d", got)
	}
}

// sumOver sums the per-segment optima of segs, pieces of tr, on the
// worker pool.
func sumOver(tr *core.Trace, segs []Segment, workers int) int {
	pieces, workers := segmentPieces(tr, segs, workers)
	return int(sumPool(pieces, workers, (*segSolver).cardinality))
}

func TestComponentsMatchSegmentsOnGappedTraces(t *testing.T) {
	// On a trace with clean time cuts, the components decomposition is at
	// least as fine — both must sum to the same optimum.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		tr := gappedTrace(rng, 3, 2, 3, 4)
		want := Optimum(tr)
		if got := sumOver(tr, Components(tr), 3); got != want {
			t.Fatalf("trial %d: components sum %d, Optimum %d", trial, got, want)
		}
		if got := sumOver(tr, SegmentTrace(tr), 3); got != want {
			t.Fatalf("trial %d: segments sum %d, Optimum %d", trial, got, want)
		}
	}
}
