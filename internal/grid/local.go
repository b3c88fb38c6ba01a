package grid

import (
	"context"
	"errors"
	"sort"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/ratio"
)

// RatioJobs converts a manifest into in-process measurement jobs for the
// ratio worker pool. Each job's Input is its BuildSpec, so the pool builds
// the input of consecutive cells with the same spec once and solves its
// optimum once.
// Generation from a spec is deterministic, so the measurements match the
// subprocess and resume paths, which build every cell's input themselves,
// bit for bit.
func RatioJobs(jobs []Job) []ratio.Job {
	out := make([]ratio.Job, len(jobs))
	for i, job := range jobs {
		job := job
		out[i] = ratio.Job{
			Name: job.Name,
			Build: func() adversary.Construction {
				c, err := job.Spec.Build.Construction()
				if err != nil {
					panic(err)
				}
				return c
			},
			Strategy: func() core.Strategy { return newStrategy(job.Spec.Strategy) },
			Input:    job.Spec.Build,
		}
	}
	return out
}

// RunLocal executes the manifest in-process on the ratio worker pool — the
// -shard 0 path of every in-process sweep — with the same journal/resume
// semantics as the subprocess supervisor: journaled cells are folded without
// re-running, every completed cell is appended to the journal in manifest
// order (a nil journal appends nothing), and cancellation drains in-flight
// jobs and flushes their checkpoints before returning, so a SIGINT loses no
// finished work. It runs RatioJobs, so consecutive pending cells with the
// same spec share one input and one optimum.
func RunLocal(ctx context.Context, jobs []Job, done map[string]Record, j *Journal, workers int) (*Report, error) {
	rep, pending, err := fold(jobs, done)
	if err != nil {
		return nil, err
	}
	if len(pending) == 0 {
		return rep, ctx.Err()
	}
	var jerrs []error
	rjobs := RatioJobs(jobs)
	runErr := ratio.RunStreamCtx(ctx, func(i int) (ratio.Job, bool) {
		if i >= len(pending) {
			return ratio.Job{}, false
		}
		return rjobs[pending[i]], true
	}, workers, func(i int, m ratio.Measurement) {
		idx := pending[i]
		rep.Measurements[idx] = m
		rep.Done[idx] = true
		if err := j.Append(Record{ID: jobs[idx].ID, M: MeasOf(m)}); err != nil {
			jerrs = append(jerrs, err)
		}
	})

	// Attribute in-process panics to their cells as explicit failures, the
	// same partial-grid semantics as the subprocess path (there is no retry
	// here: a panic on identical input is deterministic).
	panicMsg := make(map[int]string)
	collect := func(err error) {
		var jp *ratio.JobPanic
		if errors.As(err, &jp) {
			panicMsg[jp.Index] = jp.Error()
		}
	}
	if runErr != nil {
		if joined, ok := runErr.(interface{ Unwrap() []error }); ok {
			for _, e := range joined.Unwrap() {
				collect(e)
			}
		} else {
			collect(runErr)
		}
	}
	if ctx.Err() == nil {
		for i, idx := range pending {
			if !rep.Done[idx] {
				rep.Failures = append(rep.Failures, Failure{
					Index: idx, ID: jobs[idx].ID, Name: jobs[idx].Name,
					Attempts: 1, Err: panicMsg[i],
				})
			}
		}
		sort.Slice(rep.Failures, func(a, b int) bool { return rep.Failures[a].Index < rep.Failures[b].Index })
	}
	if len(jerrs) > 0 {
		return rep, errors.Join(jerrs...)
	}
	return rep, ctx.Err()
}
