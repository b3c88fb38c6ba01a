package ratio

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/strategies"
	"reqsched/internal/workload"
)

func TestRunStreamCheckedMatchesSequential(t *testing.T) {
	jobs := parallelJobs()
	seq := make([]Measurement, len(jobs))
	for i, j := range jobs {
		seq[i] = MeasureConstruction(j.Build(), j.Strategy())
		seq[i].Input = j.Name
	}
	for _, workers := range []int{1, 2, 8, 0} {
		var got []Measurement
		err := RunStreamCtx(context.Background(), func(i int) (Job, bool) {
			if i >= len(jobs) {
				return Job{}, false
			}
			return jobs[i], true
		}, workers, func(i int, m Measurement) {
			if i != len(got) {
				t.Fatalf("workers=%d: emit index %d out of order (have %d)", workers, i, len(got))
			}
			got = append(got, m)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(seq) {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i := range seq {
			if got[i].OPT != seq[i].OPT || got[i].ALG != seq[i].ALG || got[i].Input != seq[i].Input {
				t.Fatalf("workers=%d job %d: %+v vs %+v", workers, i, got[i], seq[i])
			}
		}
	}
}

func TestRunStreamCheckedLargeSweepBounded(t *testing.T) {
	// Far more jobs than the pool can hold at once; every result must arrive,
	// in order. `go test -race` covers the synchronization.
	const total = 200
	emitted := 0
	err := RunStreamCtx(context.Background(), func(i int) (Job, bool) {
		if i >= total {
			return Job{}, false
		}
		d := 2 + (i % 3)
		return Job{
			Build:    func() adversary.Construction { return adversary.Fix(d*2, 3) },
			Strategy: func() core.Strategy { return strategies.NewFix() },
		}, true
	}, 4, func(i int, m Measurement) {
		if i != emitted {
			t.Fatalf("emit index %d, want %d", i, emitted)
		}
		if m.ALG == 0 {
			t.Fatalf("job %d empty: %+v", i, m)
		}
		emitted++
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != total {
		t.Fatalf("emitted %d of %d", emitted, total)
	}
}

func TestRunStreamCheckedAttributesPanics(t *testing.T) {
	names := []string{"ok-0", "boom-1", "ok-2", "boom-3", "ok-4"}
	var got []int
	err := RunStreamCtx(context.Background(), func(i int) (Job, bool) {
		if i >= len(names) {
			return Job{}, false
		}
		name := names[i]
		return Job{
			Name: name,
			Build: func() adversary.Construction {
				if strings.HasPrefix(name, "boom") {
					panic("boom in Build")
				}
				return adversary.Fix(2, 5)
			},
			Strategy: func() core.Strategy { return strategies.NewFix() },
		}, true
	}, 3, func(i int, m Measurement) {
		got = append(got, i)
	})
	if err == nil {
		t.Fatal("panicking jobs produced no error")
	}
	var jp *JobPanic
	if !errors.As(err, &jp) {
		t.Fatalf("error %T is not a *JobPanic", err)
	}
	for _, name := range []string{"boom-1", "boom-3"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not name %s", err, name)
		}
	}
	// Failed jobs are skipped by emit; siblings still arrive in order.
	if !reflect.DeepEqual(got, []int{0, 2, 4}) {
		t.Fatalf("emitted %v, want [0 2 4]", got)
	}
}

func TestSummarizeParallelCountsStarvedSeeds(t *testing.T) {
	gen := func(seed int64) *core.Trace {
		return workload.Uniform(workload.Config{N: 4, D: 3, Rounds: 10, Rate: 6, Seed: seed})
	}
	sum, err := SummarizeParallel(func() core.Strategy { return idleStrategy{} }, gen, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Starved != 4 || sum.Ratio.N() != 0 {
		t.Fatalf("starved %d ratio-n %d, want 4 and 0", sum.Starved, sum.Ratio.N())
	}
}
