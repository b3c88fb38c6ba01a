// Command perfbench is the repository benchmark. It drives the scheduler
// from one process through public entry points only — serve.Server's
// ServeHTTP, Tick and Drain in-process, and runner.Run on the plain pool —
// and prints end-to-end metrics (untraced run) or per-layer metrics (traced
// run) as one JSON object on the last line of standard output.
//
//	perfbench --workload bursty_serve|steady_serve|sweep_grid --seed N --seconds S --trace 0|1
//
// See README.md for the workloads, the metrics and how to read a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"reqsched/internal/grid"
	"reqsched/internal/ratio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A run's workload is runChunks chunks, each generated from its own seed
// derived from the run's; pass i runs chunk i mod runChunks. Short passes
// give the timed metrics many samples, while the seed-fixed metrics sum over
// every chunk and so over enough requests to vary little from seed to seed.
const runChunks = 8

// Chunk sizes at full scale.
const (
	burstyRounds = 2400 // ~40k records
	steadyRounds = 2400 // ~35k records
	sweepSeeds   = 2    // 18 cells
	sweepRounds  = 300  // ~5.4k requests per cell
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	scale    float64 // chunk size relative to full size (tests shrink it)
	chunks   int     // independent chunks the run's workload is cut into
	spansDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "bursty_serve, steady_serve or sweep_grid")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed")
	fs.Float64Var(&c.seconds, "seconds", 10, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&c.spansDir, "spans", "", "directory a traced run writes its span log to (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c.traced = trace == 1
	c.scale, c.chunks = 1, runChunks
	res, err := measure(c)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s\n", p)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"meta": res.meta}); err != nil {
		return 1
	}
	if err := enc.Encode(res.final()); err != nil {
		return 1
	}
	return 0
}

// outcome counts the operations a run attempted and the ones that failed:
// POSTs, records, grid cells and correctness checks.
type outcome struct {
	attempted, failed int
	problems          []string
}

func (o *outcome) count(attempted, failed int) {
	o.attempted += attempted
	o.failed += failed
}

// problem records a failure already counted by count.
func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// fail records one failed check.
func (o *outcome) fail(format string, args ...any) {
	o.count(1, 1)
	o.problem(format, args...)
}

// check records one correctness check.
func (o *outcome) check(ok bool, format string, args ...any) {
	if ok {
		o.count(1, 0)
		return
	}
	o.fail(format, args...)
}

// quality is what the seed fixes: every pass of a run must reproduce it.
type quality struct {
	Offered, Fulfilled int
	Opt, Alg           int
	WaitMean           float64
}

// passResult is one pass of a run.
type passResult struct {
	setup     float64 // seconds
	timed     float64 // seconds of the timed span
	cpu       float64 // process CPU seconds over the timed span
	allocs    float64 // heap allocations per offered request, timed span
	offered   int
	heapBytes int64
	q         quality
	chunk     int
	ref       float64 // seconds of the reference task run just before the pass
}

// result is a whole run.
type result struct {
	outcome
	metrics map[string]metric
	meta    map[string]any
	rate    float64         // untraced median offered requests per wall second
	chunkQ  map[int]quality // seed-fixed metrics of each chunk
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) final() map[string]any {
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	}
}

// layerMetrics collects per-layer values; units come from the catalog.
type layerMetrics map[string]metric

func (lm layerMetrics) set(name string, v float64) {
	u, ok := layerUnits[name]
	if !ok {
		panic("perfbench: per-layer metric " + name + " is not in the catalog")
	}
	lm[name] = metric{Value: v, Unit: u}
}

// layerUnits is the per-layer catalog; a layer a workload bypasses reports 0.
var layerUnits = func() map[string]string {
	m := map[string]string{
		"trace.decode_ns_per_rec":      "ns",
		"trace.decode_allocs_per_rec":  "count",
		"trace.segments":               "count",
		"serve.post_us_p50":            "us",
		"serve.post_us_p99":            "us",
		"serve.tick_us_p50":            "us",
		"serve.tick_us_p99":            "us",
		"serve.ingest_self_ns_per_rec": "ns",
		"serve.drain_ms":               "ms",
		"serve.opt_backlog_max":        "count",
		"serve.rejected":               "count",
		"core.step_self_ns_per_round":  "ns",
		"core.rounds":                  "count",
		"core.allocs_per_round":        "count",
		"strategy.round_ns_per_req":    "ns",
		"strategy.round_us_p99":        "us",
		"strategy.allocs_per_round":    "count",
		"offline.inc_ns_per_req":       "ns",
		"offline.inc_seal_us_p99":      "us",
		"offline.inc_heap_mb":          "MB",
		"offline.hk_ns_per_req":        "ns",
		"offline.opt_share":            "frac",
		"workload.gen_ns_per_req":      "ns",
		"registry.build_us":            "us",
		"runner.jobs":                  "count",
		"runner.job_ms_p50":            "ms",
		"runner.job_ms_p99":            "ms",
		"runner.pool_idle_frac":        "frac",
		"bench.unattributed_frac":      "frac",
		"bench.trace_overhead_frac":    "frac",
	}
	for _, s := range sweepStrategies {
		m["strategy."+s+".ns_per_req"] = "ns"
		m["strategy."+s+".allocs_per_req"] = "count"
	}
	return m
}()

// liveHeap reads the bytes of heap objects marked live by the last GC.
func liveHeap() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// measure runs the configured workload.
func measure(c config) (*result, error) {
	r := &result{metrics: map[string]metric{}}
	r.meta = map[string]any{
		"workload":   c.workload,
		"seed":       c.seed,
		"traced":     c.traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"chunks":     c.chunks,
	}
	start := time.Now()
	deadline := start.Add(time.Duration(c.seconds * float64(time.Second)))
	untracedUntil := deadline
	if c.traced {
		// The traced run first measures the untraced rate it compares
		// against, then spends the rest of its time traced.
		untracedUntil = start.Add(time.Duration(c.seconds * 0.4 * float64(time.Second)))
	}
	// Every chunk runs once before any is measured twice; the first pass
	// only warms up.
	minPass := c.chunks + 1
	switch c.workload {
	case "bursty_serve", "steady_serve":
		w := steadyServe(c.seed, scaled(steadyRounds, c.scale))
		if c.workload == "bursty_serve" {
			w = burstyServe(c.seed, scaled(burstyRounds, c.scale))
		}
		gated := map[int]bool{}
		passes, err := loop(minPass, c.chunks, untracedUntil, func(k int) (passResult, error) {
			p, _, err := w.chunk(k).pass(!gated[k], nil, &r.outcome)
			gated[k] = true
			return p, err
		})
		if err != nil {
			return nil, err
		}
		r.summarize(passes)
		if !c.traced {
			return r, nil
		}
		st := &serveFold{lt: layerTimes{}}
		_, err = loop(2, c.chunks, deadline, func(k int) (passResult, error) {
			rec := newRecorder(time.Now())
			p, tp, err := w.chunk(k).pass(false, rec, &r.outcome)
			if err != nil {
				return p, err
			}
			r.sameQuality(r.chunkQ[k], p.q)
			if len(st.passes) == 0 && c.spansDir != "" {
				if err := writeSpans(c.spansDir, c.workload+".jsonl", []*recorder{rec}); err != nil {
					return p, err
				}
			}
			st.add(rec, tp)
			return p, nil
		})
		if err != nil {
			return nil, err
		}
		lm := layerMetrics{}
		zeroLayers(lm)
		if err := w.chunk(0).serveLayers(st, r.rate, lm); err != nil {
			return nil, err
		}
		r.metrics = map[string]metric(lm)
		return r, nil
	case "sweep_grid":
		workers := runtime.NumCPU()
		r.meta["workers"] = workers
		w := sweepWorkload{seed: c.seed, seeds: scaled(sweepSeeds, c.scale), rounds: sweepRounds, workers: workers}
		st := &sweepState{checks: map[int][]cellCheck{}, jobs: map[int][]grid.Job{}, ms: map[int][]ratio.Measurement{}}
		passes, err := loop(minPass, c.chunks, untracedUntil, func(k int) (passResult, error) {
			return w.pass(k, st, &r.outcome)
		})
		if err != nil {
			return nil, err
		}
		r.summarize(passes)
		if !c.traced {
			return r, nil
		}
		fold := newSweepFold()
		_, err = loop(2, c.chunks, deadline, func(k int) (passResult, error) {
			tp, err := w.tracedPass(st.jobs[k], st.ms[k], &r.outcome)
			if err != nil {
				return passResult{}, err
			}
			if len(fold.walls) == 0 && c.spansDir != "" {
				if err := writeSpans(c.spansDir, c.workload+".jsonl", tp.recs); err != nil {
					return passResult{}, err
				}
			}
			fold.add(tp)
			return passResult{}, nil
		})
		if err != nil {
			return nil, err
		}
		sa, err := allocReplay(st.jobs[0])
		if err != nil {
			return nil, err
		}
		lm := layerMetrics{}
		zeroLayers(lm)
		sweepLayers(fold, sa, r.rate, lm)
		r.metrics = map[string]metric(lm)
		return r, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want bursty_serve, steady_serve or sweep_grid)", c.workload)
	}
}

// zeroLayers sets every per-layer metric to 0, the value of a layer the
// workload bypasses.
func zeroLayers(lm layerMetrics) {
	for name := range layerUnits {
		lm.set(name, 0)
	}
}

func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale+0.5)) }

// chunkSeed is the generator seed of chunk k of the run seeded with seed.
func chunkSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// loop runs passes over chunks 0, 1, ..., chunks-1, 0, ... until the
// deadline, and at least minPass of them. A GC between passes keeps one
// pass's garbage out of the next.
func loop(minPass, chunks int, deadline time.Time, pass func(k int) (passResult, error)) ([]passResult, error) {
	var passes []passResult
	for i := 0; i < minPass || time.Now().Before(deadline); i++ {
		runtime.GC()
		ref := refTask()
		p, err := pass(i % chunks)
		if err != nil {
			return nil, err
		}
		p.chunk, p.ref = i%chunks, ref.Seconds()
		passes = append(passes, p)
	}
	return passes, nil
}

func quantileOf(ps []passResult, f func(passResult) float64, q float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return quantile(xs, q)
}

// sameQuality fails the run when a pass disagrees with its chunk's first
// pass on a seed-fixed metric.
func (r *result) sameQuality(want, got quality) {
	r.check(want == got, "pass quality %+v differs from the chunk's first pass %+v", got, want)
}

// heapSlack is how far a pass's live heap may stray from its chunk's
// median. Map layouts follow per-process hash seeds, so the same live
// objects can occupy a few hundred bytes more or less from pass to pass.
func heapSlack(heap int64) int64 { return max(heap/100, 16<<10) }

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// cpuPerWall is a pass's process CPU time over its wall time. Time the
// hypervisor steals is in the wall time only, so a drop against other runs
// marks a disturbed run.
func cpuPerWall(p passResult) float64 { return p.cpu / p.timed }

// rate is a pass's offered requests per second of its timed span.
func rate(p passResult) float64 { return float64(p.offered) / p.timed }

// summarize turns the untraced passes into the end-to-end metrics and the
// run metadata. The seed-fixed metrics sum over the run's chunks; the timed
// ones are medians over passes.
func (r *result) summarize(ps []passResult) {
	r.chunkQ = map[int]quality{}
	for _, p := range ps {
		if q, ok := r.chunkQ[p.chunk]; ok {
			r.sameQuality(q, p.q)
		} else {
			r.chunkQ[p.chunk] = p.q
		}
	}
	// The first pass finishes lazy set-up in the process; it is checked
	// like the others but not measured.
	ps = ps[1:]
	heaps := map[int]int64{}
	for k := range r.chunkQ {
		var hs []float64
		for _, p := range ps {
			if p.chunk == k {
				hs = append(hs, float64(p.heapBytes))
			}
		}
		heaps[k] = int64(quantile(hs, 0.5))
	}
	for _, p := range ps {
		h := heaps[p.chunk]
		r.check(abs(p.heapBytes-h) <= heapSlack(h), "chunk %d pass live heap %d B, its median %d B", p.chunk, p.heapBytes, h)
	}
	var q quality
	var heap, waitSum float64
	for k, cq := range r.chunkQ {
		q.Offered += cq.Offered
		q.Fulfilled += cq.Fulfilled
		q.Opt += cq.Opt
		q.Alg += cq.Alg
		waitSum += cq.WaitMean * float64(cq.Fulfilled)
		heap += float64(heaps[k])
	}
	heap /= float64(len(r.chunkQ))
	// The timed metrics are scaled to the host speed at which the reference
	// task takes refNominal: slow is the median reference time over
	// refNominal, so a run on a host 30 % slower than that reports what the
	// same code does at the nominal speed.
	slow := quantileOf(ps, func(p passResult) float64 { return p.ref }, 0.5) / refNominal.Seconds()
	rawRate := quantileOf(ps, rate, 0.5)
	rawSetup := quantileOf(ps, func(p passResult) float64 { return p.setup }, 0.5)
	r.rate = rawRate
	set := func(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }
	set("throughput_krps", "krps", rawRate*slow/1e3)
	set("setup_s", "s", rawSetup/slow)
	set("served_frac", "frac", float64(q.Fulfilled)/float64(q.Offered))
	set("opt_ratio", "ratio", float64(q.Opt)/float64(q.Alg))
	set("wait_mean_rounds", "rounds", waitSum/float64(q.Fulfilled))
	set("live_heap_mb", "MB", math.Round(heap/1e3)/1e3)
	set("allocs_per_req", "count", quantileOf(ps, func(p passResult) float64 { return p.allocs }, 0.5))

	quart := func(f func(passResult) float64) []float64 {
		return []float64{quantileOf(ps, f, 0.25), quantileOf(ps, f, 0.5), quantileOf(ps, f, 0.75)}
	}
	r.meta["records"] = q.Offered
	r.meta["host_slowdown"] = slow
	r.meta["raw_throughput_krps"] = rawRate / 1e3
	r.meta["raw_setup_s"] = rawSetup
	r.meta["pass_ref_s_quartiles"] = quart(func(p passResult) float64 { return p.ref })
	r.meta["passes"] = len(ps)
	r.meta["pass_krps_quartiles"] = quart(func(p passResult) float64 { return rate(p) / 1e3 })
	r.meta["pass_cpu_per_wall_quartiles"] = quart(cpuPerWall)
	r.meta["pass_setup_s_quartiles"] = quart(func(p passResult) float64 { return p.setup })
	r.meta["pass_allocs_per_req_quartiles"] = quart(func(p passResult) float64 { return p.allocs })
	r.meta["chunk_live_heap_bytes"] = heaps
	r.meta["problems"] = strings.Join(r.problems, "; ")
}
