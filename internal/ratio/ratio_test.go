package ratio

import (
	"math"
	"strings"
	"testing"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/strategies"
	"reqsched/internal/workload"
)

func TestMeasureAgainstOptimum(t *testing.T) {
	tr := workload.Uniform(workload.Config{N: 4, D: 3, Rounds: 20, Rate: 5, Seed: 1})
	m, err := MeasureChecked(strategies.NewBalance(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if m.ALG > m.OPT {
		t.Fatalf("ALG %d > OPT %d", m.ALG, m.OPT)
	}
	if m.Ratio() < 1 {
		t.Fatalf("ratio %f < 1", m.Ratio())
	}
	if m.N != 4 || m.D != 3 || m.Strategy != "A_balance" {
		t.Fatalf("metadata wrong: %+v", m)
	}
	if !strings.Contains(m.String(), "A_balance") {
		t.Fatal("String() missing strategy")
	}
}

func TestRatioEdgeCases(t *testing.T) {
	if r := (Measurement{OPT: 0, ALG: 0}).Ratio(); r != 1 {
		t.Fatalf("0/0 ratio %f", r)
	}
	if r := (Measurement{OPT: 5, ALG: 0}).Ratio(); !math.IsInf(r, 1) {
		t.Fatalf("5/0 ratio %f", r)
	}
	if r := (Measurement{OPT: 6, ALG: 4}).Ratio(); r != 1.5 {
		t.Fatalf("6/4 ratio %f", r)
	}
}

func TestMeasureConstructionFixedTrace(t *testing.T) {
	c := adversary.Fix(4, 20)
	m := MeasureConstruction(c, strategies.NewFix())
	if m.Input != "fix" || m.Bound != c.Bound {
		t.Fatalf("construction metadata lost: %+v", m)
	}
	if m.Ratio() <= 1.5 || m.Ratio() > c.Bound {
		t.Fatalf("ratio %f outside (1.5, %f]", m.Ratio(), c.Bound)
	}
}

func TestMeasureConstructionAdaptive(t *testing.T) {
	c := adversary.Universal(3, 8)
	m := MeasureConstruction(c, strategies.NewEager())
	if m.OPT == 0 || m.ALG == 0 {
		t.Fatalf("adaptive measurement empty: %+v", m)
	}
	if m.Ratio() < 45.0/41.0 {
		t.Fatalf("universal ratio %f below bound", m.Ratio())
	}
}

func TestConvergenceMonotone(t *testing.T) {
	// The measured ratio converges to the bound as the additive constant
	// washes out with more phases.
	var ms []Measurement
	for _, p := range []int{2, 8, 32, 128} {
		ms = append(ms, MeasureConstruction(adversary.Fix(4, p), strategies.NewFix()))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Ratio() <= ms[i-1].Ratio() {
			t.Fatalf("ratio not increasing: %f then %f", ms[i-1].Ratio(), ms[i].Ratio())
		}
	}
	if last := ms[len(ms)-1].Ratio(); last > 1.75 || last < 1.74 {
		t.Fatalf("128-phase ratio %f not near 1.75", last)
	}
}

func TestSummarizeAggregates(t *testing.T) {
	gen := func(seed int64) *core.Trace {
		return workload.Uniform(workload.Config{N: 4, D: 3, Rounds: 15, Rate: 6, Seed: seed})
	}
	sum := summarize(t, func() core.Strategy { return strategies.NewBalance() }, gen, 6)
	if sum.Seeds != 6 || sum.Ratio.N() != 6 {
		t.Fatalf("seed accounting: %+v", sum)
	}
	if sum.Strategy != "A_balance" {
		t.Fatalf("strategy name %q", sum.Strategy)
	}
	if sum.Ratio.Mean() < 1 {
		t.Fatalf("mean ratio %f below 1", sum.Ratio.Mean())
	}
	if sum.Ratio.Max() > 2 {
		t.Fatalf("balance ratio %f above 2 on random load", sum.Ratio.Max())
	}
	if sum.String() == "" {
		t.Fatal("empty string form")
	}
}

func TestSummarizeStableUnderGoodStrategy(t *testing.T) {
	// On light load A_balance should be optimal for every seed: mean 1, std 0.
	gen := func(seed int64) *core.Trace {
		return workload.Uniform(workload.Config{N: 8, D: 4, Rounds: 20, Rate: 3, Seed: seed})
	}
	sum := summarize(t, func() core.Strategy { return strategies.NewBalance() }, gen, 5)
	if sum.Ratio.Mean() != 1 || sum.Ratio.Std() != 0 {
		t.Fatalf("light load should be ratio 1 for all seeds: %s", sum)
	}
}
