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

// RunStreamChecked executes jobs produced on demand by next on a worker pool
// and delivers their measurements to emit strictly in job order — the
// bounded-memory sibling of RunParallelChecked for sweeps too large to hold
// as a slice. next(i) returns the i-th job, or ok=false to end the stream;
// it is called from a single goroutine in index order, so generators may be
// stateful. emit(i, m) is likewise called from a single goroutine in index
// order, which makes any fold over the results deterministic regardless of
// worker scheduling.
//
// At most 2×workers jobs exist between generation and emission (workers <= 0
// means GOMAXPROCS): a ticket gate stops the producer until earlier results
// have been emitted, so memory stays bounded by the pool, not the sweep.
// Panics are attributed exactly as in RunParallelChecked: each failed job
// contributes one *JobPanic (in job order) to the joined error, sibling jobs
// run to completion, and failed jobs are skipped by emit.
func RunStreamChecked(next func(i int) (Job, bool), workers int, emit func(i int, m Measurement)) error {
	return RunStreamCtx(context.Background(), next, workers, emit)
}

// RunStreamCtx is RunStreamChecked with cooperative cancellation: when ctx
// is cancelled the producer stops generating jobs, in-flight jobs drain to
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

// SummarizeParallel is Summarize on a worker pool: the per-seed simulations
// and offline optima run concurrently, while the summary is folded strictly
// in seed order, so the result is bit-identical to Summarize for every worker
// count. A panicking seed surfaces as a *JobPanic naming it (the completed
// seeds are still folded and Seeds records only them).
func SummarizeParallel(mk func() core.Strategy, gen func(seed int64) *core.Trace, seeds, workers int) (*Summary, error) {
	var sum Summary
	sum.Strategy = mk().Name()
	err := RunStreamChecked(func(i int) (Job, bool) {
		if i >= seeds {
			return Job{}, false
		}
		seed := int64(i)
		return Job{
			Name:     fmt.Sprintf("seed %d", seed),
			Build:    func() adversary.Construction { return adversary.Construction{Trace: gen(seed)} },
			Strategy: mk,
		}, true
	}, workers, func(i int, m Measurement) {
		sum.Seeds++
		if m.ALG > 0 {
			sum.Ratio.Add(float64(m.OPT) / float64(m.ALG))
		} else if m.OPT == 0 {
			sum.Ratio.Add(1)
		} else {
			sum.Starved++
		}
		sum.Served.Add(float64(m.ALG))
		sum.Expired.Add(float64(m.Expired))
	})
	return &sum, err
}
