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

// Job is one measurement for the worker pool: a construction factory paired
// with a strategy factory. Factories, not instances, because constructions
// with adaptive sources and most strategies are stateful and must not be
// shared across goroutines.
type Job struct {
	// Name labels the measurement in the result.
	Name string
	// Build creates the adversarial input.
	Build func() adversary.Construction
	// Strategy creates the online strategy to measure.
	Strategy func() core.Strategy
	// Input is a comparable key naming the input Build creates; nil means
	// the input is not shared. The pool builds the input of a run of
	// consecutive jobs with equal Input once, runs every job's strategy on
	// that one read-only trace and solves its optimum once, so such jobs must
	// Build equal inputs. An adaptive source is stateful and depends on the
	// strategy: only the job that built it uses it, and every other job of
	// the run calls its own Build.
	Input any
}

// JobPanic reports that one job of a sweep panicked. The job's name and
// index attribute the failure; Value is the recovered panic value and Stack
// the goroutine stack captured at recovery. A panic in the shared build or
// optimum of an input fails every job sharing it, each with its own JobPanic
// carrying the stack of the job that ran the failing call. Sibling jobs are
// unaffected: they run to completion before the error is surfaced.
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

// RunParallelChecked executes the jobs on up to `workers` goroutines
// (GOMAXPROCS if workers <= 0) and returns the measurements in job order.
// The measurements of the jobs that completed are returned either way
// (failed jobs leave their zero value); the error joins one *JobPanic per
// failed job, in job order.
func RunParallelChecked(jobs []Job, workers int) ([]Measurement, error) {
	return RunParallelCtx(context.Background(), jobs, workers)
}

// RunParallelCtx is RunParallelChecked with cooperative cancellation: it
// collects RunStreamCtx over the slice, so a cancelled run keeps every
// finished measurement and leaves undispatched jobs at their zero value.
func RunParallelCtx(ctx context.Context, jobs []Job, workers int) ([]Measurement, error) {
	out := make([]Measurement, len(jobs))
	err := RunStreamCtx(ctx, func(i int) (Job, bool) {
		if i >= len(jobs) {
			return Job{}, false
		}
		return jobs[i], true
	}, workers, func(i int, m Measurement) { out[i] = m })
	return out, err
}

// RunStreamCtx executes jobs produced on demand by next on a worker pool and
// delivers their measurements to emit strictly in job order. It is the one
// worker pool of the package. next(i) returns the i-th job, or ok=false to
// end the stream; it is called from a single goroutine in index order, so
// generators may be stateful. emit(i, m) is likewise called from a single
// goroutine in index order, which makes any fold over the results
// deterministic regardless of worker scheduling.
//
// At most 2×workers jobs exist between generation and emission (workers <= 0
// means GOMAXPROCS): a ticket gate stops the producer until earlier results
// have been emitted, so memory stays bounded by the pool, not the sweep.
// Each job runs a full simulation; the input and its offline optimum are
// built once per run of consecutive jobs with equal Job.Input and once per
// job otherwise.
//
// A job that panics does not take the sweep down anonymously: each failed job
// contributes one *JobPanic (in job order) to the joined error, sibling jobs
// run to completion, and failed jobs are skipped by emit. When ctx is
// cancelled the producer stops generating jobs, in-flight jobs drain to
// completion, and every finished measurement is still emitted in job order —
// the property a SIGINT handler needs to flush a checkpoint journal without
// dropping completed work. The returned error then includes ctx's error.
func RunStreamCtx(ctx context.Context, next func(i int) (Job, bool), workers int, emit func(i int, m Measurement)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type result struct {
		i   int
		m   Measurement
		err error
	}
	tasks := make(chan task)
	results := make(chan result)
	tickets := make(chan struct{}, 2*workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				m, err := t.run()
				results <- result{t.i, m, err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	go func() {
		defer close(tasks)
		var in inputs
		for i := 0; ; i++ {
			if ctx.Err() != nil {
				return
			}
			job, ok := next(i)
			if !ok {
				return
			}
			// Block on the ticket gate and cancellation together: a full gate
			// must not delay the reaction to ctx. A ticket acquired here is
			// always followed by the task send (workers are still draining),
			// so the gate stays balanced.
			select {
			case tickets <- struct{}{}:
			case <-ctx.Done():
				return
			}
			tasks <- in.task(i, job)
		}
	}()

	// Reorder and emit. pending holds results that arrived ahead of the next
	// index to emit; the ticket gate bounds it to 2*workers entries.
	pending := make(map[int]result, 2*workers)
	var errs []error
	nextEmit := 0
	for r := range results {
		pending[r.i] = r
		for {
			q, ok := pending[nextEmit]
			if !ok {
				break
			}
			delete(pending, nextEmit)
			if q.err != nil {
				errs = append(errs, q.err)
			} else {
				emit(nextEmit, q.m)
			}
			nextEmit++
			<-tickets
		}
	}
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
