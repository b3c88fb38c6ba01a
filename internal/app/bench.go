package app

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"reqsched"
	"reqsched/internal/core"
	"reqsched/internal/registry"
	"reqsched/internal/serve"
	"reqsched/internal/workload"
)

// benchEntry is one strategy's measured baseline.
type benchEntry struct {
	Strategy       string  `json:"strategy"`
	NsPerOp        float64 `json:"ns_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	RoundsPerSec   float64 `json:"rounds_per_sec"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	Fulfilled      int     `json:"fulfilled"`
}

// benchOfflineEntry is one worker count's segmented-solver timing.
type benchOfflineEntry struct {
	Workers int     `json:"workers"`
	NsPerOp float64 `json:"ns_per_op"`
	// Speedup is monolithic ns / segmented ns at this worker count.
	Speedup float64 `json:"speedup_vs_monolithic"`
}

// benchOffline records the segmented parallel offline optimum against the
// monolithic Hopcroft–Karp solver on a gapped bursty trace (clean segment
// cuts between bursts).
type benchOffline struct {
	Workload struct {
		N         int     `json:"n"`
		D         int     `json:"d"`
		Rounds    int     `json:"rounds"`
		On        int     `json:"on"`
		Off       int     `json:"off"`
		BurstRate float64 `json:"burst_rate"`
		Seed      int64   `json:"seed"`
		Requests  int     `json:"requests"`
	} `json:"workload"`
	Segments int `json:"segments"`
	Optimum  int `json:"optimum"`
	// GOMAXPROCS records the CPUs the timings ran on: with one visible CPU
	// the speedup is algorithmic (many small matchings beat one monolithic
	// run), not thread-level.
	GOMAXPROCS   int                 `json:"gomaxprocs"`
	MonolithicNs float64             `json:"monolithic_ns_per_op"`
	Entries      []benchOfflineEntry `json:"entries"`
}

// benchWeighted records the segmented weighted offline solvers (max profit,
// min latency) against their monolithic min-cost-flow counterparts on a
// gapped bursty trace with harmonic request weights. The monolithic solvers
// run successive shortest paths over the whole graph and scale superlinearly
// in the trace, so they are timed once (reps=1) and the min-latency pair runs
// on a tenth of the profit workload to keep the harness bounded.
type benchWeighted struct {
	Workload struct {
		N         int     `json:"n"`
		D         int     `json:"d"`
		Rounds    int     `json:"rounds"`
		On        int     `json:"on"`
		Off       int     `json:"off"`
		BurstRate float64 `json:"burst_rate"`
		Seed      int64   `json:"seed"`
		MaxW      int     `json:"max_weight"`
		Requests  int     `json:"requests"`
	} `json:"workload"`
	Segments   int `json:"segments"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// MaxProfit section: the weighted optimum and per-worker-count timings.
	Profit             int                 `json:"profit"`
	ProfitMonolithicNs float64             `json:"profit_monolithic_ns_per_op"`
	ProfitEntries      []benchOfflineEntry `json:"profit_entries"`
	// MinLatency section, on a smaller slice of the same workload shape.
	MinLatencyRequests     int                 `json:"min_latency_requests"`
	MinLatency             int                 `json:"min_latency"`
	MinLatencyMonolithicNs float64             `json:"min_latency_monolithic_ns_per_op"`
	MinLatencyEntries      []benchOfflineEntry `json:"min_latency_entries"`
}

// benchWorkload describes the gapped bursty trace the offline-style sections
// run on (bursts of `on` rounds at `burst_rate`, then `off` silent rounds, so
// every burst is an independent segment).
type benchWorkload struct {
	N         int     `json:"n"`
	D         int     `json:"d"`
	Rounds    int     `json:"rounds"`
	On        int     `json:"on"`
	Off       int     `json:"off"`
	BurstRate float64 `json:"burst_rate"`
	Seed      int64   `json:"seed"`
	Requests  int     `json:"requests"`
}

// benchIncremental records the incremental rolling optimum (one maintained
// matching, one augmenting-path search per request, scratch reused across
// segment seals) against the cold path the serve daemon used to run: a fresh
// graph and Hopcroft–Karp solve per materialized segment sub-trace. One op is
// a full pass over the trace; the alloc reduction is the headline — the
// incremental path never rebuilds the graph.
type benchIncremental struct {
	// TargetRequests reproduces the section: the -incremental-requests value.
	TargetRequests int           `json:"target_requests"`
	Workload       benchWorkload `json:"workload"`
	Segments       int           `json:"segments"`
	Optimum        int           `json:"optimum"`
	GOMAXPROCS     int           `json:"gomaxprocs"`
	// Cold: offline.Optimum on each pre-materialized segment sub-trace.
	ColdNsPerOp     float64 `json:"cold_ns_per_op"`
	ColdAllocsPerOp int64   `json:"cold_allocs_per_op"`
	ColdBytesPerOp  int64   `json:"cold_bytes_per_op"`
	// Incremental: OptimumIncremental over the whole trace.
	NsPerOp        float64 `json:"ns_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	SpeedupVsCold  float64 `json:"speedup_vs_cold"`
	AllocReduction float64 `json:"alloc_reduction_vs_cold"`
}

// benchServeEntry is the serve daemon's measured ingest rate: a full
// session — HTTP ingest of the whole JSONL stream, engine stepping under the
// virtual clock, rolling-optimum worker, drain — per op. Mode names the
// daemon shape the baseline row gates.
type benchServeEntry struct {
	Mode           string  `json:"mode"`
	NsPerRequest   float64 `json:"ns_per_request"`
	RequestsPerSec float64 `json:"requests_per_sec"`
}

// benchServeIngest records end-to-end daemon ingest throughput.
type benchServeIngest struct {
	TargetRequests int               `json:"target_requests"`
	Workload       benchWorkload     `json:"workload"`
	Segments       int               `json:"segments"`
	GOMAXPROCS     int               `json:"gomaxprocs"`
	Entries        []benchServeEntry `json:"entries"`
}

// benchModelEntry is one service model's engine timing: the greedy router on
// reusable-resource traffic sized to the model's capacity. One op is a full
// trace run.
type benchModelEntry struct {
	Hold        int     `json:"hold"`
	Cap         int     `json:"cap"`
	Requests    int     `json:"requests"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Fulfilled   int     `json:"fulfilled"`
}

// benchModelHold records the engine under hold=k service models — the
// occupancy-tracking window path — against the unit-model hold=1 row, which
// must stay on the historical zero-extra-alloc fast path.
type benchModelHold struct {
	TargetRequests int `json:"target_requests"`
	Workload       struct {
		N    int     `json:"n"`
		D    int     `json:"d"`
		Load float64 `json:"load"`
		Seed int64   `json:"seed"`
	} `json:"workload"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Entries    []benchModelEntry `json:"entries"`
}

// benchBaseline is the file format of BENCH_engine.json.
type benchBaseline struct {
	Workload struct {
		N        int     `json:"n"`
		D        int     `json:"d"`
		Rounds   int     `json:"rounds"`
		Rate     float64 `json:"rate"`
		Seed     int64   `json:"seed"`
		Requests int     `json:"requests"`
	} `json:"workload"`
	Entries     []benchEntry      `json:"entries"`
	Offline     *benchOffline     `json:"offline,omitempty"`
	Weighted    *benchWeighted    `json:"weighted,omitempty"`
	Incremental *benchIncremental `json:"incremental_opt,omitempty"`
	ServeIngest *benchServeIngest `json:"serve_ingest,omitempty"`
	ModelHold   *benchModelHold   `json:"model_hold,omitempty"`
}

// timeIt returns the fastest of reps timed runs of f in nanoseconds.
func timeIt(reps int, f func()) float64 {
	best := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		ns := float64(time.Since(start).Nanoseconds())
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// runBenchOffline measures the monolithic and segmented offline solvers on
// a multi-segment trace of roughly `requests` requests.
func runBenchOffline(requests int, stderr io.Writer) (*benchOffline, error) {
	// Bursts of 4 rounds at burstRate, then 8 silent rounds (> d-1): every
	// burst is an independent segment.
	const (
		n, d      = 16, 4
		on, off   = 4, 8
		burstRate = 50.0
		seed      = 5
	)
	rounds := requests * (on + off) / (on * int(burstRate))
	cfg := reqsched.WorkloadConfig{N: n, D: d, Rounds: rounds, Rate: 0, Seed: seed}
	tr := reqsched.Bursty(cfg, on, off, burstRate)

	var o benchOffline
	o.Workload.N = n
	o.Workload.D = d
	o.Workload.Rounds = rounds
	o.Workload.On = on
	o.Workload.Off = off
	o.Workload.BurstRate = burstRate
	o.Workload.Seed = seed
	o.Workload.Requests = tr.NumRequests()
	o.Segments = reqsched.TraceSegmentCount(tr)
	o.GOMAXPROCS = runtime.GOMAXPROCS(0)

	want := 0
	o.MonolithicNs = timeIt(2, func() { want = reqsched.Optimum(tr) })
	o.Optimum = want
	for _, workers := range []int{1, 2, 4, 8} {
		var got int
		ns := timeIt(3, func() { got = reqsched.OptimumParallel(tr, workers) })
		if got != want {
			return nil, fmt.Errorf("BUG: OptimumParallel(workers=%d) = %d, Optimum = %d", workers, got, want)
		}
		o.Entries = append(o.Entries, benchOfflineEntry{
			Workers: workers,
			NsPerOp: ns,
			Speedup: o.MonolithicNs / ns,
		})
		fmt.Fprintf(stderr, "offline workers=%d %14.0f ns/op  speedup %.2fx\n",
			workers, ns, o.MonolithicNs/ns)
	}
	return &o, nil
}

// benchBurstyTrace builds the gapped bursty trace the incremental and serve
// sections run on (same shape as runBenchOffline), sized to roughly
// `requests` requests.
func benchBurstyTrace(requests int) (*reqsched.Trace, benchWorkload) {
	const (
		n, d      = 16, 4
		on, off   = 4, 8
		burstRate = 50.0
		seed      = 5
	)
	rounds := requests * (on + off) / (on * int(burstRate))
	cfg := reqsched.WorkloadConfig{N: n, D: d, Rounds: rounds, Rate: 0, Seed: seed}
	tr := reqsched.Bursty(cfg, on, off, burstRate)
	return tr, benchWorkload{
		N: n, D: d, Rounds: rounds, On: on, Off: off,
		BurstRate: burstRate, Seed: seed, Requests: tr.NumRequests(),
	}
}

// runBenchIncremental measures the incremental rolling optimum against cold
// per-segment solves on a multi-segment trace of roughly `requests` requests.
func runBenchIncremental(requests int, stderr io.Writer) (*benchIncremental, error) {
	tr, wl := benchBurstyTrace(requests)

	o := &benchIncremental{TargetRequests: requests, Workload: wl}
	o.Segments = reqsched.TraceSegmentCount(tr)
	o.GOMAXPROCS = runtime.GOMAXPROCS(0)

	// Pre-materialize the segment sub-traces so the cold timing is the solve
	// alone — exactly the work the serve daemon's rolling worker used to do
	// per closed segment — not the cutting.
	var buf bytes.Buffer
	if err := reqsched.WriteTraceStream(&buf, tr); err != nil {
		return nil, err
	}
	var segs []*reqsched.Trace
	for sub, err := range reqsched.TraceSegments(bytes.NewReader(buf.Bytes())) {
		if err != nil {
			return nil, err
		}
		segs = append(segs, sub)
	}

	want := reqsched.Optimum(tr)
	o.Optimum = want

	cold := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sum := 0
			for _, sub := range segs {
				sum += reqsched.Optimum(sub)
			}
			if sum != want {
				b.Fatalf("cold segment sum %d, Optimum %d", sum, want)
			}
		}
	})
	o.ColdNsPerOp = float64(cold.T.Nanoseconds()) / float64(cold.N)
	o.ColdAllocsPerOp = cold.AllocsPerOp()
	o.ColdBytesPerOp = cold.AllocedBytesPerOp()

	inc := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := reqsched.OptimumIncremental(tr); got != want {
				b.Fatalf("OptimumIncremental %d, Optimum %d", got, want)
			}
		}
	})
	o.NsPerOp = float64(inc.T.Nanoseconds()) / float64(inc.N)
	o.AllocsPerOp = inc.AllocsPerOp()
	o.BytesPerOp = inc.AllocedBytesPerOp()
	if o.NsPerOp > 0 {
		o.SpeedupVsCold = o.ColdNsPerOp / o.NsPerOp
	}
	if o.AllocsPerOp > 0 {
		o.AllocReduction = float64(o.ColdAllocsPerOp) / float64(o.AllocsPerOp)
	}
	fmt.Fprintf(stderr, "incremental cold %14.0f ns/op %8d allocs/op\n", o.ColdNsPerOp, o.ColdAllocsPerOp)
	fmt.Fprintf(stderr, "incremental inc  %14.0f ns/op %8d allocs/op  speedup %.2fx  allocs %.1fx fewer\n",
		o.NsPerOp, o.AllocsPerOp, o.SpeedupVsCold, o.AllocReduction)
	return o, nil
}

// runBenchModelHold measures the engine under hold=k service models: the
// greedy router on reusable-resource traffic of roughly `requests` requests
// per cell, rounds scaled so every model sees the same request count at the
// same utilization. The hold=1,cap=1 row runs the historical unit-model fast
// path; the others exercise the occupancy-tracking window.
func runBenchModelHold(requests int, stderr io.Writer) (*benchModelHold, error) {
	const (
		n, d = 16, 4
		load = 0.9
		seed = 11
	)
	o := &benchModelHold{TargetRequests: requests}
	o.Workload.N = n
	o.Workload.D = d
	o.Workload.Load = load
	o.Workload.Seed = seed
	o.GOMAXPROCS = runtime.GOMAXPROCS(0)

	greedy := func() core.Strategy {
		s, err := registry.NewStrategySpec("compose,router=greedy")
		if err != nil {
			panic(err) // the spec is a constant; resolution cannot fail
		}
		return s
	}
	for _, m := range []core.ServiceModel{{Hold: 1, Cap: 1}, {Hold: 2, Cap: 1}, {Hold: 4, Cap: 2}, {Hold: 8, Cap: 2}} {
		// rate = load*n*cap/hold, so rounds = requests*hold/(load*n*cap) keeps
		// the request count at the target for every model.
		rounds := int(float64(requests) * float64(m.Hold) / (load * float64(n) * float64(m.Cap)))
		tr := workload.Reusable(workload.Config{N: n, D: d, Rounds: rounds, Seed: seed}, m, load)
		var fulfilled int
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.RunChecked(greedy(), tr)
				if err != nil {
					b.Fatalf("run greedy under %s: %v", m, err)
				}
				fulfilled = res.Fulfilled
			}
		})
		nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
		o.Entries = append(o.Entries, benchModelEntry{
			Hold: m.Hold, Cap: m.Cap, Requests: tr.NumRequests(),
			NsPerOp:     nsPerOp,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Fulfilled:   fulfilled,
		})
		fmt.Fprintf(stderr, "model %-14s %12.0f ns/op %8d allocs/op %10d B/op  served %d of %d\n",
			m, nsPerOp, r.AllocsPerOp(), r.AllocedBytesPerOp(), fulfilled, tr.NumRequests())
	}
	return o, nil
}

// serveIngestMode names the daemon shape the serve section measures:
// batched admission with the incremental rolling optimum.
const serveIngestMode = "batched_incremental"

// runBenchServeIngest measures end-to-end daemon throughput: the bursty JSONL
// stream POSTed to a virtual-clock serve.Server, drain included, so decode,
// admission, engine stepping and the rolling-optimum worker all count.
func runBenchServeIngest(requests int, stderr io.Writer) (*benchServeIngest, error) {
	tr, wl := benchBurstyTrace(requests)
	o := &benchServeIngest{TargetRequests: requests, Workload: wl}
	o.Segments = reqsched.TraceSegmentCount(tr)
	o.GOMAXPROCS = runtime.GOMAXPROCS(0)

	var buf bytes.Buffer
	if err := reqsched.WriteTraceStream(&buf, tr); err != nil {
		return nil, err
	}
	body := buf.Bytes()

	session := func() error {
		// A_fix is the cheapest engine strategy, so the session time is
		// dominated by the machinery under test — decode, admission, rolling
		// optimum — not by strategy bookkeeping.
		s, err := serve.New(serve.Config{
			N: tr.N, D: tr.D,
			Strategy: reqsched.NewAFix(), StrategyName: "A_fix",
			Virtual:  true,
			QueueCap: 1 << 20,
		})
		if err != nil {
			return err
		}
		rw := httptest.NewRecorder()
		s.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/requests", bytes.NewReader(body)))
		if rw.Code != http.StatusOK {
			return fmt.Errorf("serve ingest: status %d: %s", rw.Code, rw.Body.String())
		}
		if met := s.Drain(); met.Requests != tr.NumRequests() {
			return fmt.Errorf("serve ingest: admitted %d of %d", met.Requests, tr.NumRequests())
		}
		return nil
	}
	var serr error
	ns := timeIt(3, func() {
		if err := session(); err != nil && serr == nil {
			serr = err
		}
	})
	if serr != nil {
		return nil, serr
	}
	perReq := ns / float64(tr.NumRequests())
	o.Entries = append(o.Entries, benchServeEntry{
		Mode:           serveIngestMode,
		NsPerRequest:   perReq,
		RequestsPerSec: 1e9 / perReq,
	})
	fmt.Fprintf(stderr, "serve ingest %-20s %8.0f ns/request  %12.0f requests/s\n",
		serveIngestMode, perReq, 1e9/perReq)
	return o, nil
}

// benchWeightedWorkload builds the gapped bursty weighted trace the
// weighted benchmarks run on, sized to roughly `requests` requests.
func benchWeightedWorkload(requests int) (*reqsched.Trace, int) {
	const (
		n, d      = 16, 4
		on, off   = 4, 8
		burstRate = 50.0
		seed      = 5
		maxW      = 8
	)
	rounds := requests * (on + off) / (on * int(burstRate))
	cfg := reqsched.WorkloadConfig{N: n, D: d, Rounds: rounds, Rate: 0, Seed: seed}
	return reqsched.WithWeights(reqsched.Bursty(cfg, on, off, burstRate), maxW, seed), rounds
}

// runBenchWeighted measures the monolithic and segmented weighted offline
// solvers on a multi-segment weighted trace of roughly `requests` requests.
func runBenchWeighted(requests int, stderr io.Writer) (*benchWeighted, error) {
	tr, rounds := benchWeightedWorkload(requests)

	var wt benchWeighted
	wt.Workload.N = tr.N
	wt.Workload.D = tr.D
	wt.Workload.Rounds = rounds
	wt.Workload.On = 4
	wt.Workload.Off = 8
	wt.Workload.BurstRate = 50.0
	wt.Workload.Seed = 5
	wt.Workload.MaxW = 8
	wt.Workload.Requests = tr.NumRequests()
	wt.Segments = reqsched.TraceSegmentCount(tr)
	wt.GOMAXPROCS = runtime.GOMAXPROCS(0)

	// Max profit. The monolithic successive-shortest-paths solver is
	// superlinear in the trace (~40 min at 10^5 requests on one core), so one
	// rep only.
	want := 0
	wt.ProfitMonolithicNs = timeIt(1, func() { want = reqsched.MaxProfit(tr) })
	wt.Profit = want
	fmt.Fprintf(stderr, "weighted profit monolithic %14.0f ns/op\n", wt.ProfitMonolithicNs)
	for _, workers := range []int{1, 2, 4, 8} {
		var got int
		ns := timeIt(3, func() { got = reqsched.MaxProfitParallel(tr, workers) })
		if got != want {
			return nil, fmt.Errorf("BUG: MaxProfitParallel(workers=%d) = %d, MaxProfit = %d", workers, got, want)
		}
		wt.ProfitEntries = append(wt.ProfitEntries, benchOfflineEntry{
			Workers: workers, NsPerOp: ns, Speedup: wt.ProfitMonolithicNs / ns,
		})
		fmt.Fprintf(stderr, "weighted profit workers=%d %14.0f ns/op  speedup %.2fx\n",
			workers, ns, wt.ProfitMonolithicNs/ns)
	}

	// Min latency, same shape at a tenth of the size (its monolithic solver
	// pushes every augmenting path, not just the profitable ones).
	small, _ := benchWeightedWorkload(requests / 10)
	wt.MinLatencyRequests = small.NumRequests()
	wantLat := 0
	wt.MinLatencyMonolithicNs = timeIt(1, func() { _, wantLat = reqsched.OptimumMinLatency(small) })
	wt.MinLatency = wantLat
	fmt.Fprintf(stderr, "weighted minlat monolithic %14.0f ns/op\n", wt.MinLatencyMonolithicNs)
	for _, workers := range []int{1, 2, 4, 8} {
		var gotLat int
		ns := timeIt(3, func() { _, gotLat = reqsched.OptimumMinLatencyParallel(small, workers) })
		if gotLat != wantLat {
			return nil, fmt.Errorf("BUG: OptimumMinLatencyParallel(workers=%d) = %d, OptimumMinLatency = %d", workers, gotLat, wantLat)
		}
		wt.MinLatencyEntries = append(wt.MinLatencyEntries, benchOfflineEntry{
			Workers: workers, NsPerOp: ns, Speedup: wt.MinLatencyMonolithicNs / ns,
		})
		fmt.Fprintf(stderr, "weighted minlat workers=%d %14.0f ns/op  speedup %.2fx\n",
			workers, ns, wt.MinLatencyMonolithicNs/ns)
	}
	return &wt, nil
}

// benchStrategies is the historical baseline set BENCH_engine.json records:
// the Table 1 strategies plus the references and baselines whose timings
// the alloc-regression tests in EXPERIMENTS.md compare against. The set is
// pinned — entries are a file format, not an iteration default — so it
// stays a literal here rather than a registry query.
var benchStrategies = []string{
	"A_fix", "A_current", "A_fix_balance", "A_eager", "A_balance",
	"EDF", "first_fit", "A_local_fix", "A_local_eager",
}

// BenchMain is the main program of cmd/bench: it records the engine's
// performance baseline as JSON. It runs the BenchmarkEngine workload
// (uniform, N=16, D=6, 300 rounds, rate 18, seed 11) through each strategy
// under testing.Benchmark and emits one entry per strategy with ns/op,
// allocs/op, bytes/op and derived throughput, plus an offline section
// benchmarking the segmented parallel optimum against the monolithic solver
// on a million-request multi-segment trace. The checked-in
// BENCH_engine.json is the reference the alloc-regression tests in
// EXPERIMENTS.md compare against:
//
//	go run ./cmd/bench -out BENCH_engine.json
func BenchMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("bench", stderr)
	out := fs.String("out", "", "output file (default stdout)")
	benchtime := fs.Duration("benchtime", 0, "per-strategy benchmark time (default testing's 1s)")
	offlineReqs := fs.Int("offline-requests", 1_000_000, "request count for the segmented-optimum benchmark (0 skips it)")
	weightedReqs := fs.Int("weighted-requests", 100_000, "request count for the weighted-optima benchmark (0 skips it; the monolithic reference is superlinear — ~40 min at the default size)")
	incReqs := fs.Int("incremental-requests", 200_000, "request count for the incremental-optimum benchmark (0 skips it)")
	serveReqs := fs.Int("serve-requests", 50_000, "request count for the serve-ingest benchmark (0 skips it)")
	modelReqs := fs.Int("model-requests", 50_000, "request count per service model for the model_hold benchmark (0 skips it)")
	regressFile := fs.String("check-regress", "", "baseline BENCH_engine.json: rerun the incremental_opt, serve_ingest and model_hold sections at the baseline's sizes and fail if ns/op regresses past -regress-tolerance (skips everything else)")
	regressTol := fs.Float64("regress-tolerance", 0.25, "allowed fractional ns/op regression in -check-regress mode")
	workers := workersFlag(fs)
	list, describe := listingFlags(fs)
	if ok, code := parse(fs, args); !ok {
		return code
	}
	if handled, code := listing(*list, *describe, resolveWorkers(*workers), stdout, stderr); handled {
		return code
	}
	if *regressFile != "" {
		return benchCheckRegress(*regressFile, *regressTol, stdout, stderr)
	}
	if *benchtime > 0 {
		// testing.Benchmark honours the -test.benchtime flag.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		testing.Init()
		flag.Set("test.benchtime", benchtime.String())
	}

	cfg := reqsched.WorkloadConfig{N: 16, D: 6, Rounds: 300, Rate: 18, Seed: 11}
	tr := reqsched.Uniform(cfg)

	var base benchBaseline
	base.Workload.N = cfg.N
	base.Workload.D = cfg.D
	base.Workload.Rounds = cfg.Rounds
	base.Workload.Rate = cfg.Rate
	base.Workload.Seed = cfg.Seed
	base.Workload.Requests = tr.NumRequests()

	for _, name := range benchStrategies {
		name := name
		var fulfilled int
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := reqsched.RunChecked(reqsched.StrategyByName(name), tr)
				if err != nil {
					b.Fatalf("run %s: %v", name, err)
				}
				fulfilled = res.Fulfilled
			}
		})
		nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
		opsPerSec := 0.0
		if nsPerOp > 0 {
			opsPerSec = 1e9 / nsPerOp
		}
		totalRounds := float64(tr.Horizon())
		base.Entries = append(base.Entries, benchEntry{
			Strategy:       name,
			NsPerOp:        nsPerOp,
			AllocsPerOp:    r.AllocsPerOp(),
			BytesPerOp:     r.AllocedBytesPerOp(),
			RoundsPerSec:   opsPerSec * totalRounds,
			RequestsPerSec: opsPerSec * float64(tr.NumRequests()),
			Fulfilled:      fulfilled,
		})
		fmt.Fprintf(stderr, "%-16s %12.0f ns/op %8d allocs/op %10d B/op  served %d\n",
			name, nsPerOp, r.AllocsPerOp(), r.AllocedBytesPerOp(), fulfilled)
	}

	if *offlineReqs > 0 {
		o, err := runBenchOffline(*offlineReqs, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		base.Offline = o
	}
	if *weightedReqs > 0 {
		wt, err := runBenchWeighted(*weightedReqs, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		base.Weighted = wt
	}
	if *incReqs > 0 {
		inc, err := runBenchIncremental(*incReqs, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		base.Incremental = inc
	}
	if *serveReqs > 0 {
		si, err := runBenchServeIngest(*serveReqs, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		base.ServeIngest = si
	}
	if *modelReqs > 0 {
		mh, err := runBenchModelHold(*modelReqs, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		base.ModelHold = mh
	}

	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&base); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// benchCheckRegress is the CI benchmark-regression guard: it reruns the cheap
// incremental_opt, serve_ingest and model_hold sections at the sizes recorded
// in the checked-in baseline and fails if any ns/op metric regressed past tol
// (fractional — 0.25 allows +25%). Getting faster never fails; the strategy,
// offline and weighted sections are too slow for a CI gate and are skipped.
func benchCheckRegress(path string, tol float64, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var base benchBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(stderr, "parse %s: %v\n", path, err)
		return 1
	}
	if base.Incremental == nil && base.ServeIngest == nil && base.ModelHold == nil {
		fmt.Fprintf(stderr, "%s has no incremental_opt, serve_ingest or model_hold section to check\n", path)
		return 1
	}
	failed := false
	check := func(name string, baseline, got float64) {
		limit := baseline * (1 + tol)
		ok := got <= limit
		verdict := "ok"
		if !ok {
			verdict = "REGRESSED"
			failed = true
		}
		fmt.Fprintf(stdout, "%-34s baseline %12.0f ns  now %12.0f ns  (limit %12.0f)  %s\n",
			name, baseline, got, limit, verdict)
	}
	if base.Incremental != nil {
		got, err := runBenchIncremental(base.Incremental.TargetRequests, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		check("incremental_opt.ns_per_op", base.Incremental.NsPerOp, got.NsPerOp)
		check("incremental_opt.cold_ns_per_op", base.Incremental.ColdNsPerOp, got.ColdNsPerOp)
	}
	if base.ServeIngest != nil {
		got, err := runBenchServeIngest(base.ServeIngest.TargetRequests, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		want := make(map[string]float64, len(base.ServeIngest.Entries))
		for _, e := range base.ServeIngest.Entries {
			want[e.Mode] = e.NsPerRequest
		}
		for _, e := range got.Entries {
			if baseline, ok := want[e.Mode]; ok {
				check("serve_ingest."+e.Mode+".ns_per_request", baseline, e.NsPerRequest)
			}
		}
	}
	if base.ModelHold != nil {
		got, err := runBenchModelHold(base.ModelHold.TargetRequests, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		want := make(map[string]float64, len(base.ModelHold.Entries))
		for _, e := range base.ModelHold.Entries {
			want[fmt.Sprintf("hold=%d,cap=%d", e.Hold, e.Cap)] = e.NsPerOp
		}
		for _, e := range got.Entries {
			key := fmt.Sprintf("hold=%d,cap=%d", e.Hold, e.Cap)
			if baseline, ok := want[key]; ok {
				check("model_hold."+key+".ns_per_op", baseline, e.NsPerOp)
			}
		}
	}
	if failed {
		fmt.Fprintln(stderr, "bench: performance regression past tolerance; rerun on a quiet machine or regenerate the baseline with cmd/bench -out")
		return 1
	}
	return 0
}
