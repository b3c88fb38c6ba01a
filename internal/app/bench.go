package app

import (
	"bytes"
	"encoding/json"
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

// benchWorkload describes the gapped bursty trace the incremental and serve
// sections run on (bursts of `on` rounds at `burst_rate`, then `off` silent
// rounds, so every burst is an independent segment).
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

// benchBurstyTrace builds the gapped bursty trace the incremental and serve
// sections run on, sized to roughly `requests` requests.
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

// BenchMain is the main program of cmd/bench: it records, as JSON, the
// performance baseline of the machinery the CI regression gate guards — the
// incremental rolling optimum against cold per-segment solves, end-to-end
// serve ingest, and the engine under hold=k service models. -check-regress
// reruns those sections at the checked-in sizes and fails on an ns/op
// regression past the tolerance:
//
//	go run ./cmd/bench -out BENCH_engine.json
//	go run ./cmd/bench -check-regress BENCH_engine.json
//
// Per-strategy engine throughput is `go test -run '^$' -bench
// '^BenchmarkEngine$' -benchmem .`, and the segmented offline optima against
// their monolithic oracles are `go test -run '^$' -bench '^BenchmarkSolve$' .`.
func BenchMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("bench", stderr)
	out := fs.String("out", "", "output file (default stdout)")
	incReqs := fs.Int("incremental-requests", 200_000, "request count for the incremental-optimum benchmark (0 skips it)")
	serveReqs := fs.Int("serve-requests", 50_000, "request count for the serve-ingest benchmark (0 skips it)")
	modelReqs := fs.Int("model-requests", 50_000, "request count per service model for the model_hold benchmark (0 skips it)")
	regressFile := fs.String("check-regress", "", "baseline BENCH_engine.json: rerun the incremental_opt, serve_ingest and model_hold sections at the baseline's sizes and fail if ns/op regresses past -regress-tolerance")
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

	var base benchBaseline
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
// (fractional — 0.25 allows +25%). Getting faster never fails.
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
