package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"reqsched"
	"reqsched/internal/core"
	"reqsched/internal/grid"
	"reqsched/internal/offline"
	"reqsched/internal/ratio"
	"reqsched/internal/registry"
	"reqsched/internal/runner"
)

// sweepStrategies are the nine strategies of BENCH_engine.json.
var sweepStrategies = []string{
	"A_fix", "A_current", "A_fix_balance", "A_eager", "A_balance",
	"EDF", "first_fit", "A_local_fix", "A_local_eager",
}

// sweepWorkload is the nine strategies × consecutive seeds over the registry
// uniform workload at n=16, d=6, rate 18, run by runner.Run on the plain
// in-process pool.
type sweepWorkload struct {
	seed    int64 // run seed
	seeds   int   // cell seeds per chunk
	rounds  int
	workers int
}

// records declares chunk k: the nine strategies on each of its seeds.
func (w sweepWorkload) records(k int) []runner.Record {
	var recs []runner.Record
	for i := 0; i < w.seeds; i++ {
		seed := chunkSeed(w.seed, k*w.seeds+i)
		for _, s := range sweepStrategies {
			recs = append(recs, runner.Record{
				Name:     fmt.Sprintf("%s/seed=%d", s, seed),
				Strategy: s,
				Source:   "uniform",
				Params: registry.Params{
					"n": registry.IntVal(16), "d": registry.IntVal(6),
					"rounds": registry.IntVal(int64(w.rounds)), "rate": registry.FloatVal(18),
					"seed": registry.IntVal(seed),
				},
			})
		}
	}
	return recs
}

// manifestReps is how often one sweep pass repeats the millisecond-scale
// manifest build, so its set-up sample is a median rather than one interval.
const manifestReps = 15

// setup builds chunk k's manifest manifestReps times and returns the last
// one with the median build time.
func (w sweepWorkload) setup(k int) ([]grid.Job, float64, error) {
	var jobs []grid.Job
	times := make([]float64, manifestReps)
	for i := range times {
		t0 := time.Now()
		var err error
		jobs, err = runner.Manifest(w.records(k))
		if err != nil {
			return nil, 0, err
		}
		times[i] = time.Since(t0).Seconds()
	}
	return jobs, quantile(times, 0.5), nil
}

// cellCheck is a direct recomputation of one cell.
type cellCheck struct {
	m          ratio.Measurement
	requests   int
	latencySum int
}

// sweepState carries, per chunk, what the gate recomputed and the grid
// the traced replays run.
type sweepState struct {
	checks map[int][]cellCheck
	jobs   map[int][]grid.Job
	ms     map[int][]ratio.Measurement
}

// pass runs chunk k's grid: manifest set-up, runner.Run timed, the live
// heap after the grid outside the timed span. A chunk's first pass gates
// every cell against ratio.MeasureChecked and core.RunChecked
// recomputations.
func (w sweepWorkload) pass(k int, st *sweepState, out *outcome) (passResult, error) {
	var res passResult
	runtime.GC()
	base := liveHeap()
	jobs, setup, err := w.setup(k)
	if err != nil {
		return res, err
	}
	res.setup = setup
	allocs := newAllocSample()
	a0 := allocs.read()
	c0 := cpuTime()
	t0 := time.Now()
	rr, err := runner.Run(context.Background(), jobs, runner.Options{Tool: "perfbench", Workers: w.workers})
	res.timed = time.Since(t0).Seconds()
	res.cpu = (cpuTime() - c0).Seconds()
	na := allocs.read() - a0
	if err != nil {
		return res, err
	}
	runtime.GC()
	res.heapBytes = liveHeap() - base

	ms := rr.Measurements
	checks := st.checks[k]
	if checks == nil {
		checks, err = w.recompute(jobs)
		if err != nil {
			return res, err
		}
		st.checks[k], st.jobs[k], st.ms[k] = checks, jobs, ms
	}
	failed := 0
	if !rr.AllDone() || len(ms) != len(jobs) {
		failed = len(jobs)
		out.problem("grid incomplete: %s", rr.FailureReport)
	}
	var q quality
	latency := 0
	for i := range jobs {
		if failed > 0 {
			break
		}
		c, m := checks[i], ms[i]
		if m.OPT != c.m.OPT || m.ALG != c.m.ALG || m.Expired != c.m.Expired || m.ALG+m.Expired != c.requests {
			failed++
			out.problem("cell %s: runner OPT=%d ALG=%d expired=%d, recomputed OPT=%d ALG=%d expired=%d of %d",
				jobs[i].Name, m.OPT, m.ALG, m.Expired, c.m.OPT, c.m.ALG, c.m.Expired, c.requests)
		}
		q.Offered += c.requests
		q.Fulfilled += m.ALG
		q.Opt += m.OPT
		latency += c.latencySum
	}
	out.count(len(jobs), failed)
	q.Alg = q.Fulfilled
	if q.Fulfilled > 0 {
		q.WaitMean = float64(latency) / float64(q.Fulfilled)
	}
	res.q = q
	res.offered = q.Offered
	res.allocs = float64(na) / float64(max(q.Offered, 1))
	return res, nil
}

// recompute measures every cell directly — ratio.MeasureChecked on the
// rebuilt input, plus core.RunChecked for the wait — on the same number of
// workers as the grid.
func (w sweepWorkload) recompute(jobs []grid.Job) ([]cellCheck, error) {
	checks := make([]cellCheck, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < w.workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				checks[i], errs[i] = recomputeCell(jobs[i])
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return checks, nil
}

func recomputeCell(job grid.Job) (cellCheck, error) {
	c, err := job.Spec.Build.Construction()
	if err != nil {
		return cellCheck{}, err
	}
	s, err := registry.NewStrategySpec(job.Spec.Strategy)
	if err != nil {
		return cellCheck{}, err
	}
	m, err := ratio.MeasureChecked(s, c.Trace)
	if err != nil {
		return cellCheck{}, err
	}
	s, err = registry.NewStrategySpec(job.Spec.Strategy)
	if err != nil {
		return cellCheck{}, err
	}
	res, err := core.RunChecked(s, c.Trace)
	if err != nil {
		return cellCheck{}, err
	}
	return cellCheck{m: m, requests: c.Trace.NumRequests(), latencySum: res.LatencySum}, nil
}

// sweepTraced is one traced replay of the grid.
type sweepTraced struct {
	recs    []*recorder
	wall    time.Duration
	cells   []cellInfo
	workers int
}

type cellInfo struct {
	strategy string
	requests int
	rounds   int
	alg, opt int
}

// tracedPass replays every cell as gen + run + OPT on a pool of the same
// size as the grid's, one recorder per worker goroutine, and checks each
// replayed cell against the gated measurements.
func (w sweepWorkload) tracedPass(jobs []grid.Job, ms []ratio.Measurement, out *outcome) (*sweepTraced, error) {
	epoch := time.Now()
	tp := &sweepTraced{cells: make([]cellInfo, len(jobs)), workers: w.workers}
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < w.workers; g++ {
		rec := newRecorder(epoch)
		tp.recs = append(tp.recs, rec)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				tp.cells[i], errs[i] = tracedCell(rec, jobs[i])
			}
		}()
	}
	t0 := time.Now()
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	tp.wall = time.Since(t0)
	failed := 0
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		if c := tp.cells[i]; c.alg != ms[i].ALG || c.opt != ms[i].OPT {
			failed++
			out.problem("traced cell %s: ALG=%d OPT=%d, grid ALG=%d OPT=%d", jobs[i].Name, c.alg, c.opt, ms[i].ALG, ms[i].OPT)
		}
	}
	out.count(len(jobs), failed)
	return tp, nil
}

func tracedCell(rec *recorder, job grid.Job) (cellInfo, error) {
	rec.batch = int32(job.Index)
	cell := rec.begin("runner.cell")
	defer rec.end(cell)
	id := rec.begin("workload.gen")
	c, err := job.Spec.Build.Construction()
	rec.end(id)
	if err != nil {
		return cellInfo{}, err
	}
	id = rec.begin("registry.build")
	s, err := registry.NewStrategySpec(job.Spec.Strategy)
	rec.end(id)
	if err != nil {
		return cellInfo{}, err
	}
	ts := wrapStrategy(s, rec, nil)
	id = rec.begin("core.run")
	res, err := core.RunChecked(ts, c.Trace)
	rec.end(id)
	if err != nil {
		return cellInfo{}, err
	}
	id = rec.begin("offline.opt")
	opt := offline.Optimum(c.Trace)
	rec.end(id)
	return cellInfo{
		strategy: job.Spec.Strategy, requests: c.Trace.NumRequests(), rounds: ts.rounds,
		alg: res.Fulfilled, opt: opt,
	}, nil
}

// sweepAllocs replays every cell serially, counting allocations around each
// Round, so the process-wide counter is not shared with another worker.
type sweepAllocs struct {
	perStrategy map[string]float64 // Round allocations per request
	coreAllocs  float64            // allocations of core.RunChecked outside Round
	roundAllocs float64
	rounds      int
	segments    int
}

func allocReplay(jobs []grid.Job) (sweepAllocs, error) {
	sa := sweepAllocs{perStrategy: map[string]float64{}}
	reqs := map[string]int{}
	as := newAllocSample()
	for _, job := range jobs {
		c, err := job.Spec.Build.Construction()
		if err != nil {
			return sa, err
		}
		s, err := registry.NewStrategySpec(job.Spec.Strategy)
		if err != nil {
			return sa, err
		}
		ts := wrapStrategy(s, nil, as)
		a0 := as.read()
		if _, err := core.RunChecked(ts, c.Trace); err != nil {
			return sa, err
		}
		total := float64(as.read() - a0)
		sa.perStrategy[job.Spec.Strategy] += float64(ts.roundAllocs)
		reqs[job.Spec.Strategy] += c.Trace.NumRequests()
		sa.roundAllocs += float64(ts.roundAllocs)
		sa.coreAllocs += total - float64(ts.roundAllocs)
		sa.rounds += ts.rounds
		sa.segments += reqsched.TraceSegmentCount(c.Trace)
	}
	for name, n := range reqs {
		sa.perStrategy[name] /= float64(n)
	}
	return sa, nil
}

// sweepFold accumulates the traced replays, so a pass's spans can be
// dropped once folded.
type sweepFold struct {
	lt              layerTimes
	perStrategyNs   map[string]float64
	perStrategyReqs map[string]int
	walls           []float64
	rates           []float64 // offered requests per second of each replay
	workerNs        float64   // Σ workers × wall
	requests        int
	rounds          int
	jobs            int
	workers         int
}

func newSweepFold() *sweepFold {
	return &sweepFold{lt: layerTimes{}, perStrategyNs: map[string]float64{}, perStrategyReqs: map[string]int{}}
}

func (f *sweepFold) add(tp *sweepTraced) {
	f.walls = append(f.walls, tp.wall.Seconds())
	f.workerNs += float64(tp.workers) * float64(tp.wall)
	f.workers = tp.workers
	for _, rec := range tp.recs {
		f.lt.add(rec.spans)
		for _, s := range rec.spans {
			if s.name == "strategy.round" {
				f.perStrategyNs[tp.cells[s.batch].strategy] += float64(s.dur())
			}
		}
	}
	reqs := 0
	for _, c := range tp.cells {
		reqs += c.requests
		f.requests += c.requests
		f.rounds += c.rounds
		f.perStrategyReqs[c.strategy] += c.requests
	}
	f.jobs = len(tp.cells)
	f.rates = append(f.rates, float64(reqs)/tp.wall.Seconds())
}

// sweepLayers turns the folded traced replays and the allocation replay
// into the per-layer metrics.
func sweepLayers(f *sweepFold, sa sweepAllocs, untracedRate float64, lm layerMetrics) {
	lt := f.lt
	passes := float64(len(f.walls))
	reqs := float64(f.requests)

	lm.set("trace.segments", float64(sa.segments))
	run, round := lt.get("core.run"), lt.get("strategy.round")
	lm.set("core.step_self_ns_per_round", float64(run.total-round.total)/float64(f.rounds))
	lm.set("core.rounds", float64(f.rounds)/passes)
	lm.set("core.allocs_per_round", sa.coreAllocs/float64(sa.rounds))

	lm.set("strategy.round_ns_per_req", float64(round.total)/reqs)
	lm.set("strategy.round_us_p99", lt.quantileNs("strategy.round", 0.99)/1e3)
	lm.set("strategy.allocs_per_round", sa.roundAllocs/float64(sa.rounds))
	for _, name := range sweepStrategies {
		lm.set("strategy."+name+".ns_per_req", f.perStrategyNs[name]/float64(f.perStrategyReqs[name]))
		lm.set("strategy."+name+".allocs_per_req", sa.perStrategy[name])
	}

	opt, gen, build, cell := lt.get("offline.opt"), lt.get("workload.gen"), lt.get("registry.build"), lt.get("runner.cell")
	lm.set("offline.hk_ns_per_req", float64(opt.total)/reqs)
	lm.set("offline.opt_share", float64(opt.total)/float64(cell.total))
	lm.set("workload.gen_ns_per_req", float64(gen.total)/reqs)
	lm.set("registry.build_us", float64(build.total)/float64(build.count)/1e3)

	lm.set("runner.jobs", float64(f.jobs))
	lm.set("runner.job_ms_p50", lt.quantileNs("runner.cell", 0.5)/1e6)
	lm.set("runner.job_ms_p99", lt.quantileNs("runner.cell", 0.99)/1e6)
	// Busy worker time per request over the time the pool had per request.
	lm.set("runner.pool_idle_frac", 1-float64(cell.total)/1e9/reqs/(float64(f.workers)/untracedRate))

	layers := float64(gen.total + build.total + run.total + opt.total)
	lm.set("bench.unattributed_frac", 1-layers/f.workerNs)
	lm.set("bench.trace_overhead_frac", untracedRate/quantile(f.rates, 0.5)-1)
}
