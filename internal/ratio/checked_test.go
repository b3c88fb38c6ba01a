package ratio

import (
	"errors"
	"strings"
	"testing"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/strategies"
	"reqsched/internal/workload"
)

// idleStrategy never assigns anything: every seed it runs on is starved.
type idleStrategy struct{}

func (idleStrategy) Name() string             { return "idle" }
func (idleStrategy) Begin(n, d int)           {}
func (idleStrategy) Round(*core.RoundContext) {}

// summarize runs SummarizeParallel on two workers and fails the test on
// any job error.
func summarize(t *testing.T, mk func() core.Strategy, gen func(seed int64) *core.Trace, seeds int) *Summary {
	t.Helper()
	sum, err := SummarizeParallel(mk, gen, seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestSummarizeCountsStarvedSeeds(t *testing.T) {
	gen := func(seed int64) *core.Trace {
		return workload.Uniform(workload.Config{N: 4, D: 3, Rounds: 10, Rate: 6, Seed: seed})
	}
	sum := summarize(t, func() core.Strategy { return idleStrategy{} }, gen, 4)
	if sum.Starved != 4 {
		t.Fatalf("starved %d, want 4", sum.Starved)
	}
	if sum.Ratio.N() != 0 {
		t.Fatalf("starved seeds leaked into the ratio mean: n=%d", sum.Ratio.N())
	}
	if !strings.Contains(sum.String(), "starved 4") {
		t.Fatalf("String() hides starvation: %q", sum.String())
	}
	// A working strategy on the same workloads starves nowhere.
	sum = summarize(t, func() core.Strategy { return strategies.NewBalance() }, gen, 4)
	if sum.Starved != 0 {
		t.Fatalf("A_balance starved %d seeds on light load", sum.Starved)
	}
	if sum.Ratio.N() != 4 {
		t.Fatalf("ratio samples %d, want 4", sum.Ratio.N())
	}
}

func TestMeasureCheckedRejectsInvalidTrace(t *testing.T) {
	tr := &core.Trace{N: 2, D: 2, Arrivals: [][]core.Request{
		{{ID: 0, Arrive: 0, D: 2, Alts: []int{9}}},
	}}
	if _, err := MeasureChecked(strategies.NewBalance(), tr); err == nil {
		t.Fatal("MeasureChecked accepted an invalid trace")
	}
}

func TestRunParallelCheckedAttributesPanics(t *testing.T) {
	jobs := []Job{
		{
			Name:     "healthy-before",
			Build:    func() adversary.Construction { return adversary.Fix(2, 10) },
			Strategy: func() core.Strategy { return strategies.NewFix() },
		},
		{
			Name:     "exploding-build",
			Build:    func() adversary.Construction { panic("boom in Build") },
			Strategy: func() core.Strategy { return strategies.NewFix() },
		},
		{
			Name:     "healthy-after",
			Build:    func() adversary.Construction { return adversary.Fix(3, 10) },
			Strategy: func() core.Strategy { return strategies.NewFix() },
		},
	}
	out, err := RunParallelChecked(jobs, 2)
	if err == nil {
		t.Fatal("panicking job produced no error")
	}
	var jp *JobPanic
	if !errors.As(err, &jp) {
		t.Fatalf("error %T is not a *JobPanic", err)
	}
	if jp.Name != "exploding-build" || jp.Index != 1 {
		t.Fatalf("panic attributed to job %d (%s)", jp.Index, jp.Name)
	}
	if !strings.Contains(err.Error(), "exploding-build") {
		t.Fatalf("error %q does not name the job", err)
	}
	if len(jp.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	// Siblings ran to completion despite the failure between them.
	if out[0].ALG == 0 || out[2].ALG == 0 {
		t.Fatalf("sibling jobs did not complete: %+v", out)
	}
	if out[0].Input != "healthy-before" || out[2].Input != "healthy-after" {
		t.Fatalf("sibling labels wrong: %+v", out)
	}
}
