package ratio

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/offline"
	"reqsched/internal/strategies"
	"reqsched/internal/workload"
)

// countingJobs builds one job per key, each on a uniform trace seeded by its
// key (nil keys get seed 0) and measured by A_fix or EDF in turn. builds
// counts the Build calls.
func countingJobs(keys []any, builds *atomic.Int64) []Job {
	jobs := make([]Job, len(keys))
	for i, k := range keys {
		seed, _ := k.(int)
		mk := func() core.Strategy { return strategies.NewFix() }
		if i%2 == 1 {
			mk = func() core.Strategy { return strategies.NewEDF() }
		}
		jobs[i] = Job{
			Name: "job",
			Build: func() adversary.Construction {
				builds.Add(1)
				return adversary.Construction{Trace: workload.Uniform(workload.Config{
					N: 4, D: 3, Rounds: 30, Rate: 5, Seed: int64(seed),
				})}
			},
			Strategy: mk,
			Input:    k,
		}
	}
	return jobs
}

// countOptimum counts solveOptimum calls for the rest of the test.
func countOptimum(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	t.Cleanup(func() { solveOptimum = offline.Optimum })
	solveOptimum = func(tr *core.Trace) int {
		n.Add(1)
		return offline.Optimum(tr)
	}
	return &n
}

func TestSharedInputBuildsAndSolvesOncePerRun(t *testing.T) {
	// Runs of equal keys: [1 1 1] [2 2] [1] [nil] [nil] [3 3]. The second
	// run of 1 is not adjacent to the first, so it builds again.
	keys := []any{1, 1, 1, 2, 2, 1, nil, nil, 3, 3}
	const runs = 6
	var want []Measurement
	var wantBuilds atomic.Int64
	for _, j := range countingJobs(keys, &wantBuilds) {
		m := MeasureConstruction(j.Build(), j.Strategy())
		m.Input = j.Name
		want = append(want, m)
	}
	for _, workers := range []int{1, 3} {
		var builds atomic.Int64
		opts := countOptimum(t)
		jobs := countingJobs(keys, &builds)
		got := runAll(t, jobs, workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: shared measurements differ:\n got %+v\nwant %+v", workers, got, want)
		}
		if b, o := builds.Load(), opts.Load(); b != runs || o != runs {
			t.Fatalf("workers=%d: %d builds and %d optima, want %d of each", workers, b, o, runs)
		}
	}
}

func TestSharedAdaptiveSourceIsNotShared(t *testing.T) {
	// An adaptive source depends on the strategy: the job that built the
	// entry uses its build, every other job builds its own, and the optimum
	// is solved per job on the trace its own run generated.
	var builds atomic.Int64
	jobs := make([]Job, 3)
	for i, mk := range []func() core.Strategy{
		func() core.Strategy { return strategies.NewFix() },
		func() core.Strategy { return strategies.NewBalance() },
		func() core.Strategy { return strategies.NewEager() },
	} {
		jobs[i] = Job{
			Name: "universal",
			Build: func() adversary.Construction {
				builds.Add(1)
				return adversary.Universal(6, 6)
			},
			Strategy: mk,
			Input:    "universal",
		}
	}
	var want []Measurement
	for _, j := range jobs {
		m := MeasureConstruction(adversary.Universal(6, 6), j.Strategy())
		m.Input = j.Name
		want = append(want, m)
	}
	got := runAll(t, jobs, 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("adaptive measurements differ:\n got %+v\nwant %+v", got, want)
	}
	if n := builds.Load(); n != int64(len(jobs)) {
		t.Fatalf("%d builds, want one per job (%d)", n, len(jobs))
	}
}

// requireSharedPanics checks that exactly the jobs at failed indices failed,
// each with its own *JobPanic carrying value, and that the rest completed.
func requireSharedPanics(t *testing.T, jobs []Job, ms []Measurement, err error, failed map[int]bool, value any) {
	t.Helper()
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("want joined job panics, got %v", err)
	}
	got := map[int]bool{}
	for _, e := range joined.Unwrap() {
		var jp *JobPanic
		if !errors.As(e, &jp) {
			t.Fatalf("unexpected error %v", e)
		}
		if jp.Value != value || jp.Name != jobs[jp.Index].Name || len(jp.Stack) == 0 {
			t.Fatalf("job %d: panic %+v, want value %v under its own name", jp.Index, jp, value)
		}
		got[jp.Index] = true
	}
	if !reflect.DeepEqual(got, failed) {
		t.Fatalf("failed jobs %v, want %v", got, failed)
	}
	for i, m := range ms {
		if !failed[i] && m.ALG == 0 {
			t.Fatalf("job %d did not complete: %+v", i, m)
		}
	}
}

func TestSharedBuildPanicFailsEverySharingJob(t *testing.T) {
	var builds, badBuilds atomic.Int64
	jobs := countingJobs([]any{1, 7, 7, 7, 2}, &builds)
	for i := 1; i <= 3; i++ {
		jobs[i].Name = "bad " + string(rune('a'+i))
		jobs[i].Build = func() adversary.Construction {
			badBuilds.Add(1)
			panic("broken input")
		}
	}
	failed := map[int]bool{1: true, 2: true, 3: true}
	for _, workers := range []int{1, 3} {
		ms, err := RunParallelChecked(jobs, workers)
		requireSharedPanics(t, jobs, ms, err, failed, "broken input")
	}
	if n := badBuilds.Load(); n != 2 {
		t.Fatalf("panicking Build ran %d times, want once per pool run (2)", n)
	}
}

func TestSharedOptimumPanicFailsEverySharingJob(t *testing.T) {
	var builds atomic.Int64
	jobs := countingJobs([]any{1, 7, 7, 7, 2}, &builds)
	bad := workload.Uniform(workload.Config{N: 4, D: 3, Rounds: 30, Rate: 5, Seed: 7})
	var solves atomic.Int64
	t.Cleanup(func() { solveOptimum = offline.Optimum })
	solveOptimum = func(tr *core.Trace) int {
		if reflect.DeepEqual(tr, bad) {
			solves.Add(1)
			panic("broken solver")
		}
		return offline.Optimum(tr)
	}
	failed := map[int]bool{1: true, 2: true, 3: true}
	ms, err := RunParallelChecked(jobs, 2)
	requireSharedPanics(t, jobs, ms, err, failed, "broken solver")
	if n := solves.Load(); n != 1 {
		t.Fatalf("panicking optimum ran %d times, want once (the one shared solve)", n)
	}
}
