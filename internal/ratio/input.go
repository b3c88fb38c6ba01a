package ratio

import (
	"runtime/debug"
	"sync"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/offline"
)

// task is one dispatched job of a worker pool: the job, its index, and the
// input entry it shares with its neighbours.
type task struct {
	i   int
	job Job
	in  *input
}

// inputs hands out input entries in job order, for the single goroutine that
// dispatches a pool's jobs: consecutive jobs with equal non-nil Job.Input get
// one entry, every other job a fresh one. It keeps only the latest entry, so
// an entry is collected with its last job and at most one input outlives the
// jobs in flight.
type inputs struct {
	key  any
	last *input
}

func (s *inputs) task(i int, job Job) task {
	if job.Input == nil || s.last == nil || job.Input != s.key {
		s.key, s.last = job.Input, &input{}
	}
	return task{i, job, s.last}
}

// input is one entry: the construction, built by the first of its jobs to
// start, and the optimum of its trace, solved by the first job whose
// strategy run has finished.
type input struct {
	build, solve onceShared
	c            adversary.Construction
	opt          int
}

// run measures the task's job, converting a panic anywhere in the
// construction build, the simulation, or the optimum into an attributed
// *JobPanic. The measurement equals MeasureConstruction's on the job's own
// Build and Strategy, with Input renamed to the job's Name.
func (t task) run() (m Measurement, err error) {
	defer func() {
		if r := recover(); r != nil {
			jp := &JobPanic{Name: t.job.Name, Index: t.i, Value: r, Stack: debug.Stack()}
			if sp, ok := r.(*sharedPanic); ok {
				jp.Value, jp.Stack = sp.value, sp.stack
			}
			err = jp
		}
	}()
	in := t.in
	built := false
	in.build.do(func() { in.c, built = t.job.Build(), true })
	c := in.c
	if c.Source != nil && !built {
		c = t.job.Build()
	}
	m = measureConstruction(c, t.job.Strategy(), in.optimum)
	if t.job.Name != "" {
		m.Input = t.job.Name
	}
	return m, nil
}

// optimum is the offline optimum of the entry's trace, solved once.
func (in *input) optimum(tr *core.Trace) int {
	in.solve.do(func() { in.opt = solveOptimum(tr) })
	return in.opt
}

// solveOptimum is the solver behind every entry; tests count its calls.
var solveOptimum = offline.Optimum

// onceShared runs a function once for every job of an entry. A panic in it
// is recovered and raised again, with its original value and stack, in each
// caller, so every job sharing the work fails with its own *JobPanic.
type onceShared struct {
	once sync.Once
	p    *sharedPanic
}

type sharedPanic struct {
	value any
	stack []byte
}

func (o *onceShared) do(f func()) {
	o.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				o.p = &sharedPanic{r, debug.Stack()}
			}
		}()
		f()
	})
	if o.p != nil {
		panic(o.p)
	}
}
