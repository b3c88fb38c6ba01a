package app

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"reqsched"
	"reqsched/internal/experiment"
	"reqsched/internal/registry"
	"reqsched/internal/stats"
)

// workloadParams assembles the parameter set a registered workload declares
// from the frontends' flag values: one entry per schema parameter, looked
// up by registry name. Components added to the registry become runnable
// here without touching this file, as long as their parameters reuse
// declared names.
func workloadParams(c registry.Component, vals map[string]registry.Value) (registry.Params, error) {
	p := make(registry.Params, len(c.Params))
	for _, sp := range c.Params {
		v, ok := vals[sp.Name]
		if !ok {
			return nil, fmt.Errorf("workload %q parameter %q has no flag; set it via -describe'd defaults", c.Name, sp.Name)
		}
		p[sp.Name] = v
	}
	return p, nil
}

// SchedsimMain is the main program of cmd/schedsim: it runs one or all
// strategies over a synthetic workload and reports throughput, loss,
// latency, per-resource balance, communication cost, and the empirical
// competitive ratio against the offline optimum. Workloads and strategies
// resolve by registry name (-list shows the catalog).
//
// Usage examples:
//
//	schedsim -workload uniform -n 8 -d 4 -rounds 200 -rate 9
//	schedsim -workload video -items 100 -zipf 1.2 -strategy A_balance
//	schedsim -workload bursty -on 5 -off 10 -burst 25 -all
func SchedsimMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("schedsim", stderr)
	var (
		wl        = fs.String("workload", "uniform", "workload generator by registry name (see -list)")
		n         = nFlag(fs)
		d         = dFlag(fs)
		rounds    = fs.Int("rounds", 200, roundsUsage)
		rate      = fs.Float64("rate", 0, "mean arrivals/round (default n)")
		seed      = seedFlag(fs)
		zipfS     = fs.Float64("zipf", 1.4, "zipf exponent (zipf/video)")
		items     = fs.Int("items", 100, "catalog size (video)")
		on        = fs.Int("on", 5, "burst length (bursty)")
		off       = fs.Int("off", 10, "quiet length (bursty)")
		burst     = fs.Float64("burst", 0, "burst arrivals/round (default 3n)")
		choices   = fs.Int("c", 3, "alternatives per request (cchoice)")
		maxW      = fs.Int("maxw", 8, "maximum request weight (weighted)")
		trapEvery = fs.Int("trap-every", 20, "rounds between embedded traps (trapmix)")
		hold      = fs.Int("hold", 0, "service model: rounds a served request occupies its resource (0 = 1, unit)")
		capc      = fs.Int("cap", 0, "service model: concurrent services per resource (0 = 1, unit)")
		load      = fs.Float64("load", 0.9, "target utilization of the model's capacity (reusable, when -rate 0)")
		strategy  = fs.String("strategy", "", "run a single strategy by name")
		all       = fs.Bool("all", false, "run every strategy (default when -strategy empty)")
		series    = fs.Bool("series", false, "emit per-round CSV for the selected strategy instead of the summary")
		latHist   = fs.Bool("latency-hist", false, "print each strategy's service-latency histogram (with clamp counts) after the summary table")
		seeds     = fs.Int("seeds", 1, "aggregate over this many seeds (mean±std instead of one run)")
		config    = fs.String("config", "", "run a declarative JSON experiment suite instead of flags")
		workers   = workersFlag(fs)
	)
	list, describe := listingFlags(fs)
	if ok, code := parse(fs, args); !ok {
		return code
	}
	if handled, code := listing(*list, *describe, resolveWorkers(*workers), stdout, stderr); handled {
		return code
	}

	if *config != "" {
		f, err := os.Open(*config)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		suite, err := experiment.Load(f)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if *workers != 0 { // unset defers to the suite file's own setting
			suite.Workers = resolveWorkers(*workers)
		}
		rep, err := suite.Run()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprint(stdout, rep.Format())
		return 0
	}
	// Historical defaulting: -rate 0 means "rate = n" — except for the
	// reusable family, where rate 0 asks the generator to derive the rate
	// from -load and the service model.
	if *rate == 0 && *wl != "reusable" {
		*rate = float64(*n)
	}
	if *burst == 0 {
		*burst = 3 * float64(*n)
	}

	comp, ok := registry.Get(registry.KindWorkload, *wl)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q\n", *wl)
		return 2
	}
	vals := map[string]registry.Value{
		"n": iv(*n), "d": iv(*d), "rounds": iv(*rounds),
		"rate": fv(*rate), "seed": registry.IntVal(*seed),
		"s": fv(*zipfS), "items": iv(*items),
		"on": iv(*on), "off": iv(*off), "burst": fv(*burst),
		"c": iv(*choices), "maxw": iv(*maxW), "trap_every": iv(*trapEvery),
		"hold": iv(*hold), "cap": iv(*capc), "load": fv(*load),
	}
	params, err := workloadParams(comp, vals)
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
		tr, gerr := registry.GenerateWorkload(*wl, p)
		if gerr != nil {
			panic(gerr)
		}
		return tr
	}
	tr := gen(*seed)

	if *seeds > 1 {
		fmt.Fprintf(stdout, "workload %s aggregated over %d seeds\n\n", *wl, *seeds)
		names := strategyNames(*strategy, *all)
		for _, name := range names {
			name := name
			sum, err := reqsched.SummarizeParallel(
				func() reqsched.Strategy { return reqsched.StrategyByName(name) },
				gen, *seeds, resolveWorkers(*workers))
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintln(stdout, sum)
		}
		return 0
	}

	if *series {
		name := *strategy
		if name == "" {
			name = "A_balance"
		}
		s := reqsched.StrategyByName(name)
		if s == nil {
			strategySpecError(stderr, name)
			return 2
		}
		_, sr := reqsched.RunWithSeries(s, tr)
		fmt.Fprintln(stdout, "round,arrived,served,expired,pending,backlog,idle")
		for _, r := range sr.Rounds {
			fmt.Fprintf(stdout, "%d,%d,%d,%d,%d,%d,%d\n",
				r.T, r.Arrived, r.Served, r.Expired, r.Pending, r.Backlog, r.Idle)
		}
		return 0
	}

	fmt.Fprintf(stdout, "workload %s: %s\n", *wl, reqsched.SummarizeTrace(tr))
	opt, _ := reqsched.Solve(tr, reqsched.Cardinality, resolveWorkers(*workers))
	fmt.Fprintf(stdout, "offline optimum: %d of %d requests (%d segments)\n\n",
		opt, tr.NumRequests(), reqsched.TraceSegmentCount(tr))

	names := strategyNames(*strategy, *all)

	fmt.Fprintf(stdout, "%-20s %9s %7s %9s %9s %9s %10s %9s\n",
		"strategy", "served", "lost", "ratio", "latency", "balance", "commRound", "messages")
	for _, name := range names {
		s := reqsched.StrategyByName(name)
		if s == nil {
			strategySpecError(stderr, name)
			return 2
		}
		res := reqsched.Run(s, tr)
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

// strategyNames resolves the -strategy/-all flags into a sorted name list.
func strategyNames(strategy string, all bool) []string {
	if strategy != "" && !all {
		return []string{strategy}
	}
	var names []string
	for name := range reqsched.Strategies() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
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
