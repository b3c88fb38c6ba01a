package app

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"reqsched"
	"reqsched/internal/core"
	"reqsched/internal/grid"
	"reqsched/internal/registry"
	"reqsched/internal/stats"
)

// workloadFlags are the generator flags schedsim and tracegen share. Each
// sets the registry parameter its grid.BuildSpec field carries, so a flag
// set and a suite file's "workload" object are two spellings of one spec.
type workloadFlags struct {
	kind                                                        *string
	n, d, rounds, items, on, off, c, maxw, trapEvery, hold, cap *int
	rate, s, burst, load                                        *float64
	seed                                                        *int64
}

func addWorkloadFlags(fs *flag.FlagSet, kindUsage string, rounds int) *workloadFlags {
	return &workloadFlags{
		kind:      fs.String("workload", "uniform", kindUsage),
		n:         nFlag(fs),
		d:         dFlag(fs),
		rounds:    fs.Int("rounds", rounds, roundsUsage),
		rate:      fs.Float64("rate", 0, "mean arrivals/round (default n)"),
		seed:      seedFlag(fs),
		s:         fs.Float64("zipf", 1.4, "zipf exponent (zipf/video)"),
		items:     fs.Int("items", 100, "catalog size (video)"),
		on:        fs.Int("on", 5, "burst length (bursty)"),
		off:       fs.Int("off", 10, "quiet length (bursty)"),
		burst:     fs.Float64("burst", 0, "burst arrivals/round (default 3n)"),
		c:         fs.Int("c", 3, "alternatives per request (cchoice)"),
		maxw:      fs.Int("maxw", 8, "maximum request weight (weighted)"),
		trapEvery: fs.Int("trap-every", 20, "rounds between embedded traps (trapmix)"),
		hold:      fs.Int("hold", 0, "service model: rounds a served request occupies its resource (0 = 1, unit)"),
		cap:       fs.Int("cap", 0, "service model: concurrent services per resource (0 = 1, unit)"),
		load:      fs.Float64("load", 0.9, "target utilization of the model's capacity (reusable, when -rate 0)"),
	}
}

// spec returns the flag values as a workload spec.
func (w *workloadFlags) spec() grid.BuildSpec {
	return grid.BuildSpec{
		Kind: *w.kind, N: *w.n, D: *w.d, Rounds: *w.rounds, Rate: *w.rate, Seed: *w.seed,
		S: *w.s, Items: *w.items, On: *w.on, Off: *w.off, Burst: *w.burst, C: *w.c,
		MaxW: *w.maxw, TrapEvery: *w.trapEvery, Hold: *w.hold, Cap: *w.cap, Load: *w.load,
	}
}

// workloadParams resolves a workload spec into the parameter set its
// registered component declares, after the frontends' historical
// defaulting: rate 0 means rate = n — except for the reusable family, where
// rate 0 asks the generator to derive the rate from load and the service
// model — and burst 0 means 3n. The parameters are not yet validated.
func workloadParams(b grid.BuildSpec) (registry.Component, registry.Params, error) {
	comp, ok := registry.Get(registry.KindWorkload, b.Kind)
	if !ok {
		return comp, nil, fmt.Errorf("unknown workload %q", b.Kind)
	}
	if b.Rate == 0 && b.Kind != "reusable" {
		b.Rate = float64(b.N)
	}
	if b.Burst == 0 {
		b.Burst = 3 * float64(b.N)
	}
	p, err := b.Params()
	return comp, p, err
}

// suite is the file schedsim -config runs: a workload in the sweep wire
// format (registry parameter names), the strategies to compare and the seed
// count. Fields the file omits keep their flag values.
type suite struct {
	Workload   grid.BuildSpec `json:"workload"`
	Strategies []string       `json:"strategies"`
	Seeds      int            `json:"seeds"`
}

// loadSuite decodes a suite file over base, rejecting unknown fields.
func loadSuite(path string, base suite) (suite, error) {
	f, err := os.Open(path)
	if err != nil {
		return base, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&base); err != nil {
		return base, fmt.Errorf("schedsim: %s: %w", path, err)
	}
	if base.Seeds < 1 {
		return base, fmt.Errorf("schedsim: %s: seeds %d, need >= 1", path, base.Seeds)
	}
	return base, nil
}

// SchedsimMain is the main program of cmd/schedsim: it runs one or all
// strategies over a synthetic workload and reports throughput, loss,
// latency, per-resource balance, communication cost, and the empirical
// competitive ratio against the offline optimum. Workloads and strategies
// resolve by registry name (-list shows the catalog). With -seeds k > 1, or
// with a -config suite file, it prints each strategy's ratio summary over
// seeds 0..k-1 instead.
//
// Usage examples:
//
//	schedsim -workload uniform -n 8 -d 4 -rounds 200 -rate 9
//	schedsim -workload video -items 100 -zipf 1.2 -strategy A_balance
//	schedsim -workload bursty -on 5 -off 10 -burst 25 -all
//	schedsim -config suite.json
func SchedsimMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("schedsim", stderr)
	wf := addWorkloadFlags(fs, "workload generator by registry name (see -list)", 200)
	var (
		strategy = fs.String("strategy", "", "run a single strategy by name")
		all      = fs.Bool("all", false, "run every strategy (default when -strategy empty)")
		series   = fs.Bool("series", false, "emit per-round CSV for the selected strategy instead of the summary")
		latHist  = fs.Bool("latency-hist", false, "print each strategy's service-latency histogram (with clamp counts) after the summary table")
		seeds    = fs.Int("seeds", 1, "aggregate over this many seeds (mean±std instead of one run)")
		config   = fs.String("config", "", `run a JSON suite {"workload": {"kind": ..., registry parameters}, "strategies": [...], "seeds": k} as the -seeds run it spells; omitted fields keep their flag values`)
		workers  = workersFlag(fs)
	)
	list, describe := listingFlags(fs)
	if ok, code := parse(fs, args); !ok {
		return code
	}
	w := resolveWorkers(*workers)
	if handled, code := listing(*list, *describe, w, stdout, stderr); handled {
		return code
	}

	run := suite{Workload: wf.spec(), Seeds: *seeds}
	if *strategy != "" && !*all {
		run.Strategies = []string{*strategy}
	}
	if *config != "" {
		var err error
		if run, err = loadSuite(*config, run); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	wl := run.Workload.Kind
	comp, params, err := workloadParams(run.Workload)
	if err == nil {
		err = comp.Validate(params)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// Validation is seed-independent, so per-seed generation cannot fail.
	gen := func(seed int64) *reqsched.Trace {
		p := params.Clone()
		p["seed"] = registry.IntVal(seed)
		tr, gerr := registry.GenerateWorkload(wl, p)
		if gerr != nil {
			panic(gerr)
		}
		return tr
	}
	// Every strategy is checked before anything runs: an explicitly named
	// one that is unknown or cannot run the workload's service model is a
	// usage error, and the default list holds only the ones that can.
	model := registry.ModelOf(params)
	names := run.Strategies
	if len(names) == 0 {
		names = listedNames(model)
	}
	for _, name := range names {
		if !runnable(stderr, name, model) {
			return 2
		}
	}

	if run.Seeds > 1 || *config != "" {
		fmt.Fprintf(stdout, "workload %s aggregated over %d seeds\n\n", wl, run.Seeds)
		for _, name := range names {
			sum, err := reqsched.SummarizeParallel(
				func() reqsched.Strategy { return reqsched.StrategyByName(name) },
				gen, run.Seeds, w)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintln(stdout, sum)
		}
		return 0
	}
	tr := gen(*wf.seed)

	if *series {
		name := *strategy
		if name == "" {
			name = "A_balance"
		}
		if !runnable(stderr, name, model) {
			return 2
		}
		_, sr := reqsched.RunWithSeries(reqsched.StrategyByName(name), tr)
		fmt.Fprintln(stdout, "round,arrived,served,expired,pending,backlog,idle")
		for _, r := range sr.Rounds {
			fmt.Fprintf(stdout, "%d,%d,%d,%d,%d,%d,%d\n",
				r.T, r.Arrived, r.Served, r.Expired, r.Pending, r.Backlog, r.Idle)
		}
		return 0
	}

	fmt.Fprintf(stdout, "workload %s: %s\n", wl, reqsched.SummarizeTrace(tr))
	opt, _ := reqsched.Solve(tr, reqsched.Cardinality, w)
	fmt.Fprintf(stdout, "offline optimum: %d of %d requests (%d segments)\n\n",
		opt, tr.NumRequests(), reqsched.TraceSegmentCount(tr))

	fmt.Fprintf(stdout, "%-20s %9s %7s %9s %9s %9s %10s %9s\n",
		"strategy", "served", "lost", "ratio", "latency", "balance", "commRound", "messages")
	for _, name := range names {
		res := reqsched.Run(reqsched.StrategyByName(name), tr)
		fmt.Fprintf(stdout, "%-20s %9d %7d %9s %9.2f %9.3f %10d %9d\n",
			name, res.Fulfilled, res.Expired,
			reqsched.FormatRatio(ratioOf(opt, res.Fulfilled), 4), res.MeanLatency(),
			imbalance(res.PerResource), res.CommRounds, res.Messages)
		if *latHist {
			printLatencyHist(stdout, name, tr, res)
		}
	}
	return 0
}

// printLatencyHist renders one strategy's service-latency distribution in
// unit-round buckets sized to the trace's largest window, naming any clamp
// counts so a folded tail cannot pass as exact data.
func printLatencyHist(w io.Writer, name string, tr *reqsched.Trace, res *reqsched.Result) {
	h := stats.NewHistogram(tr.MaxD())
	for _, f := range res.Log {
		h.Add(f.Round - f.Req.Arrive)
	}
	fmt.Fprintf(w, "\n%s latency (rounds waited):\n", name)
	fmt.Fprint(w, h.Bars(40))
	if !h.Exact() {
		fmt.Fprintf(w, "clamped: %d below 0, %d at/above %d (mean and quantiles value these tails at the sentinels -1 and %d)\n",
			h.Underflow(), h.Overflow(), h.Size(), h.Size())
	}
	fmt.Fprintln(w)
}

// listedNames returns the names of every listed strategy that can run
// service model m, sorted.
func listedNames(m core.ServiceModel) []string {
	var names []string
	for name, s := range reqsched.Strategies() {
		if core.CheckModelSupport(s, m) == nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// runnable reports whether spec names a strategy that can run service model
// m. If not, it prints why on one stderr line.
func runnable(stderr io.Writer, spec string, m core.ServiceModel) bool {
	s := reqsched.StrategyByName(spec)
	if s == nil {
		strategySpecError(stderr, spec)
		return false
	}
	if err := core.CheckModelSupport(s, m); err != nil {
		fmt.Fprintln(stderr, err)
		return false
	}
	return true
}

// ratioOf is OPT/ALG: 1 when both served nothing, +Inf when only the
// strategy starved (OPT served something, ALG nothing).
func ratioOf(opt, alg int) float64 {
	if alg == 0 {
		if opt == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(opt) / float64(alg)
}

// imbalance is max/mean of the per-resource service counts (1.0 = perfectly
// balanced).
func imbalance(per []int) float64 {
	total, max := 0, 0
	for _, c := range per {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(per))
	return float64(max) / mean
}
