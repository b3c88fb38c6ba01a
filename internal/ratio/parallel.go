package ratio

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
)

// Job is one measurement for RunParallel: a construction factory paired with
// a strategy factory. Factories, not instances, because constructions with
// adaptive sources and most strategies are stateful and must not be shared
// across goroutines.
type Job struct {
	// Name labels the measurement in the result.
	Name string
	// Build creates the adversarial input.
	Build func() adversary.Construction
	// Strategy creates the online strategy to measure.
	Strategy func() core.Strategy
	// Input is a comparable key naming the input Build creates; nil means
	// the input is not shared. The pools build the input of a run of
	// consecutive jobs with equal Input once, run every job's strategy on
	// that one read-only trace and solve its optimum once, so such jobs must
	// Build equal inputs. An adaptive source is stateful and depends on the
	// strategy: only the job that built it uses it, and every other job of
	// the run calls its own Build.
	Input any
}

// JobPanic reports that one job of a parallel sweep panicked. The job's name
// and index attribute the failure; Value is the recovered panic value and
// Stack the goroutine stack captured at recovery. A panic in the shared
// build or optimum of an input fails every job sharing it, each with its own
// JobPanic carrying the stack of the job that ran the failing call. Sibling
// jobs are unaffected: they run to completion before the error is surfaced.
type JobPanic struct {
	Name  string
	Index int
	Value any
	Stack []byte
}

func (e *JobPanic) Error() string {
	return fmt.Sprintf("ratio: job %d (%s) panicked: %v", e.Index, e.name(), e.Value)
}

func (e *JobPanic) name() string {
	if e.Name == "" {
		return "unnamed"
	}
	return e.Name
}

// RunParallel executes the jobs on up to `workers` goroutines (GOMAXPROCS if
// workers <= 0) and returns the measurements in job order. Each job runs a
// full simulation; the input and its Hopcroft–Karp optimum are built once
// per run of consecutive jobs with equal Job.Input and once per job
// otherwise. The work units are coarse and the speedup is near-linear; the
// Table 1 harness and the sweep tool use it to regenerate the whole
// evaluation in one pass.
//
// A job that panics does not take the sweep down anonymously: the panic is
// recovered per job, siblings finish, and RunParallel re-panics with a
// *JobPanic naming the offending job. Callers that prefer an error use
// RunParallelChecked.
func RunParallel(jobs []Job, workers int) []Measurement {
	out, err := RunParallelChecked(jobs, workers)
	if err != nil {
		panic(err)
	}
	return out
}

// RunParallelChecked is RunParallel returning job panics as an error instead
// of re-panicking. The measurements of the jobs that completed are returned
// in job order either way (failed jobs leave their zero value); the error
// joins one *JobPanic per failed job, in job order.
func RunParallelChecked(jobs []Job, workers int) ([]Measurement, error) {
	return RunParallelCtx(context.Background(), jobs, workers)
}

// RunParallelCtx is RunParallelChecked with cooperative cancellation: when
// ctx is cancelled, no further jobs are dispatched, but jobs already running
// drain to completion and their measurements are kept — so a SIGINT-driven
// caller loses no finished work. The returned error then includes ctx's
// error alongside any per-job panics; undispatched jobs keep their zero
// Measurement.
func RunParallelCtx(ctx context.Context, jobs []Job, workers int) ([]Measurement, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make([]Measurement, len(jobs))
	if len(jobs) == 0 {
		return out, ctx.Err()
	}
	errs := make([]error, len(jobs), len(jobs)+1)
	tasks := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				out[t.i], errs[t.i] = t.run()
			}
		}()
	}
	var in inputs
dispatch:
	for i, job := range jobs {
		select {
		case tasks <- in.task(i, job):
		case <-ctx.Done():
			break dispatch
		}
	}
	close(tasks)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return out, errors.Join(errs...)
}
