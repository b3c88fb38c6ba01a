package offline

import (
	"fmt"
	"math/rand"
	"testing"

	"reqsched/internal/core"
	"reqsched/internal/strategies"
	"reqsched/internal/workload"
)

func TestAugmentingTotalsEqualLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 30; trial++ {
		tr := randomTrace(rng, 2+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(8), 6)
		opt := Optimum(tr)
		for _, s := range []core.Strategy{strategies.NewFix(), strategies.NewEager()} {
			res := core.Run(s, tr)
			orders := AugmentingOrders(tr, res.Log)
			if got := totalAugmenting(orders); got != opt-res.Fulfilled {
				t.Fatalf("trial %d %s: %d augmenting paths but loss is %d-%d",
					trial, s.Name(), got, opt, res.Fulfilled)
			}
		}
	}
}

func TestFixFamilyHasNoOrderOnePaths(t *testing.T) {
	// Theorem 3.3's opening claim: a failed A_fix request is never directly
	// connected to an unused slot (the matching is maximal), so every
	// augmenting path has order >= 2. Same for the maximal baselines.
	for seed := int64(0); seed < 6; seed++ {
		tr := workload.Uniform(workload.Config{N: 5, D: 3, Rounds: 30, Rate: 9, Seed: seed})
		for _, s := range []core.Strategy{
			strategies.NewFix(), strategies.NewFixBalance(),
			strategies.NewCurrent(), strategies.NewFirstFit(),
		} {
			res := core.Run(s, tr)
			if err := checkOrderAtLeast(tr, res.Log, 2); err != nil {
				t.Fatalf("%s seed %d: %v", s.Name(), seed, err)
			}
		}
	}
}

func TestEagerFamilyHasNoOrderTwoPaths(t *testing.T) {
	// Theorem 3.5's claim: A_eager admits no augmenting paths of order 1 or
	// 2, because each round it computes a maximum matching over the whole
	// known subgraph. Same for A_balance (Theorem 3.6 relies on it too).
	for seed := int64(0); seed < 6; seed++ {
		tr := workload.Uniform(workload.Config{N: 5, D: 4, Rounds: 30, Rate: 9, Seed: seed})
		for _, s := range []core.Strategy{strategies.NewEager(), strategies.NewBalance()} {
			res := core.Run(s, tr)
			if err := checkOrderAtLeast(tr, res.Log, 3); err != nil {
				t.Fatalf("%s seed %d: %v", s.Name(), seed, err)
			}
		}
	}
}

func TestEagerOrderClaimOnAdversarialInput(t *testing.T) {
	// The same claims on the inputs engineered to hurt: the Theorem 2.4
	// trace forces A_eager's full 4/3 loss, yet every augmenting path still
	// has order >= 3.
	b := core.NewBuilder(4, 4)
	b.Block(0, 0, 3)
	for p := 1; p <= 10; p++ {
		t0 := 2 + (p-1)*4
		odd := p%2 == 1
		inner, outer := [2]int{1, 2}, [2]int{0, 3}
		if !odd {
			inner, outer = outer, inner
		}
		for i := 0; i < 2; i++ {
			b.Add(t0, outer[0], inner[0])
		}
		for i := 0; i < 2; i++ {
			b.Add(t0, inner[1], outer[1])
		}
		for i := 0; i < 4; i++ {
			b.Add(t0, inner[0], inner[1])
		}
		b.Block(t0+2, inner[0], inner[1])
	}
	tr := b.Build()
	res := core.Run(strategies.NewEager(), tr)
	if err := checkOrderAtLeast(tr, res.Log, 3); err != nil {
		t.Fatal(err)
	}
	orders := AugmentingOrders(tr, res.Log)
	if totalAugmenting(orders) == 0 {
		t.Fatal("expected losses on the adversarial trace")
	}
}

func TestMinAugmentingOrderHelpers(t *testing.T) {
	if minAugmentingOrder(map[int]int{}) != 0 {
		t.Fatal("empty histogram should report 0")
	}
	if minAugmentingOrder(map[int]int{3: 1, 2: 0, 5: 4}) != 3 {
		t.Fatal("zero-count entries must be ignored")
	}
	if totalAugmenting(map[int]int{2: 3, 4: 1}) != 4 {
		t.Fatal("total wrong")
	}
}

func TestLogMatchingRoundTrip(t *testing.T) {
	b := core.NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 1, 0)
	tr := b.Build()
	res := core.Run(strategies.NewBalance(), tr)
	m := logMatching(tr, res.Log)
	if m.Size() != res.Fulfilled {
		t.Fatalf("matching size %d != fulfilled %d", m.Size(), res.Fulfilled)
	}
}

// TestAugmentingTotalsEqualLossUnderModels pins the histogram's accounting
// under reusable-resource models: the schedule's fulfillments map to distinct
// (epoch, resource, unit) slots of the epoch relaxation, so the augmenting
// paths against the optimum number exactly OPT minus the schedule's size.
func TestAugmentingTotalsEqualLossUnderModels(t *testing.T) {
	for _, h := range []int{1, 2, 4} {
		for _, capc := range []int{1, 2} {
			m := core.ServiceModel{Hold: h, Cap: capc}
			tr := workload.Reusable(workload.Config{N: 6, D: 5, Rounds: 80, Seed: 12}, m, 0.9)
			res := core.Run(strategies.NewFirstFit(), tr)
			opt := Optimum(tr)
			if got := totalAugmenting(AugmentingOrders(tr, res.Log)); got != opt-res.Fulfilled {
				t.Errorf("%s: %d augmenting paths but loss is %d-%d", m, got, opt, res.Fulfilled)
			}
		}
	}
}

// minAugmentingOrder returns the smallest order in the histogram, or 0 when
// the online schedule is optimal (no augmenting paths at all).
func minAugmentingOrder(orders map[int]int) int {
	min := 0
	for k, v := range orders {
		if v > 0 && (min == 0 || k < min) {
			min = k
		}
	}
	return min
}

// totalAugmenting sums the histogram: exactly OPT - ALG.
func totalAugmenting(orders map[int]int) int {
	total := 0
	for _, v := range orders {
		total += v
	}
	return total
}

// checkOrderAtLeast verifies the structural claim of an upper-bound proof:
// every augmenting path against the optimum has at least minOrder requests.
// Returns an error naming the violating order otherwise.
func checkOrderAtLeast(tr *core.Trace, log []core.Fulfillment, minOrder int) error {
	orders := AugmentingOrders(tr, log)
	if m := minAugmentingOrder(orders); m != 0 && m < minOrder {
		return fmt.Errorf("offline: augmenting path of order %d exists (want >= %d); histogram %v",
			m, minOrder, orders)
	}
	return nil
}
