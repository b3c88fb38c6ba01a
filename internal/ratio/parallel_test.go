package ratio

import (
	"testing"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/strategies"
)

func parallelJobs() []Job {
	return []Job{
		{
			Name:     "fix-d2",
			Build:    func() adversary.Construction { return adversary.Fix(2, 20) },
			Strategy: func() core.Strategy { return strategies.NewFix() },
		},
		{
			Name:     "fix-d4",
			Build:    func() adversary.Construction { return adversary.Fix(4, 20) },
			Strategy: func() core.Strategy { return strategies.NewFix() },
		},
		{
			Name:     "eager-d4",
			Build:    func() adversary.Construction { return adversary.Eager(4, 20) },
			Strategy: func() core.Strategy { return strategies.NewEager() },
		},
		{
			Name:     "universal",
			Build:    func() adversary.Construction { return adversary.Universal(6, 10) },
			Strategy: func() core.Strategy { return strategies.NewBalance() },
		},
		{
			Name:     "balance-x2",
			Build:    func() adversary.Construction { return adversary.Balance(2, 8, 20) },
			Strategy: func() core.Strategy { return strategies.NewBalance() },
		},
	}
}

// runAll runs jobs on the pool and fails the test on any job error.
func runAll(t *testing.T, jobs []Job, workers int) []Measurement {
	t.Helper()
	out, err := RunParallelChecked(jobs, workers)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRunParallelMatchesSequential(t *testing.T) {
	jobs := parallelJobs()
	seq := make([]Measurement, len(jobs))
	for i, j := range jobs {
		seq[i] = MeasureConstruction(j.Build(), j.Strategy())
		seq[i].Input = j.Name
	}
	for _, workers := range []int{1, 2, 8, 0} {
		par := runAll(t, jobs, workers)
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: got %d results", workers, len(par))
		}
		for i := range seq {
			if par[i].OPT != seq[i].OPT || par[i].ALG != seq[i].ALG || par[i].Input != seq[i].Input {
				t.Fatalf("workers=%d job %d: %+v vs %+v", workers, i, par[i], seq[i])
			}
		}
	}
}

func TestRunParallelEmpty(t *testing.T) {
	if out := runAll(t, nil, 4); len(out) != 0 {
		t.Fatal("empty job list should return empty results")
	}
}

func TestRunParallelOrderPreserved(t *testing.T) {
	jobs := parallelJobs()
	out := runAll(t, jobs, 3)
	for i, j := range jobs {
		if out[i].Input != j.Name {
			t.Fatalf("result %d carries name %q, want %q", i, out[i].Input, j.Name)
		}
	}
}

func TestRunParallelRace(t *testing.T) {
	// Stress the pool with many small jobs; `go test -race` covers the
	// synchronization.
	var jobs []Job
	for i := 0; i < 32; i++ {
		d := 2 + (i % 3)
		jobs = append(jobs, Job{
			Build:    func() adversary.Construction { return adversary.Fix(d*2, 5) },
			Strategy: func() core.Strategy { return strategies.NewFix() },
		})
	}
	out := runAll(t, jobs, 8)
	for i, m := range out {
		if m.OPT == 0 || m.ALG == 0 {
			t.Fatalf("job %d empty: %+v", i, m)
		}
	}
}
