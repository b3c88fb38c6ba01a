package app

import (
	"fmt"
	"io"

	"reqsched"
	"reqsched/internal/ballsbins"
	"reqsched/internal/table"
)

// PaperMain is the main program of cmd/paper: it reproduces the paper's
// entire evaluation in one run — the artifact script. Sections: Table 1
// (global strategies), the local strategies, lower-bound convergence, the
// tie-breaking ablation, the EDF observations, the weighted offline optima,
// the streamed adaptive adversary, a random-workload summary, and the
// Section 1.1 balls-into-bins measurement that motivates the two-choice
// model. Use -quick for a fast pass and -full for publication-scale phase
// counts. Every measurement routes through the parallel harness; each cell
// is an independent deterministic job, so the output is identical for every
// worker count.
func PaperMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("paper", stderr)
	quick := fs.Bool("quick", false, "small phase counts (seconds)")
	full := fs.Bool("full", false, "publication-scale phase counts (minutes)")
	workers := workersFlag(fs)
	list, describe := listingFlags(fs)
	if ok, code := parse(fs, args); !ok {
		return code
	}
	if handled, code := listing(*list, *describe, resolveWorkers(*workers), stdout, stderr); handled {
		return code
	}

	cfg := table.Config{Phases: 60, Groups: 32}
	if *quick {
		cfg = table.Config{Phases: 12, Groups: 8}
	}
	if *full {
		cfg = table.Config{Phases: 200, Groups: 64}
	}
	w := resolveWorkers(*workers)

	fail := func(err error) int {
		fmt.Fprintln(stderr, "paper:", err)
		return 1
	}
	section := func(title string) {
		fmt.Fprintf(stdout, "\n=== %s ===\n\n", title)
	}

	section("Table 1 — global strategies (lower-bound adversaries, measured vs proven)")
	rows, err := table.RowsParallel(cfg, w)
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, table.Format(rows))

	section("Local strategies and EDF (Theorems 3.7, 3.8; Observation 3.2)")
	rows, err = table.LocalRowsParallel(cfg, w)
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, table.Format(rows))

	section("Lower-bound convergence (A_fix, d=4): ratio approaches 2 - 1/d = 1.75")
	phaseCounts := []int{5, 20, 80, 320}
	jobs := make([]reqsched.MeasureJob, len(phaseCounts))
	for i, p := range phaseCounts {
		jobs[i] = reqsched.MeasureJob{
			Name:     fmt.Sprintf("phases=%d", p),
			Build:    func() reqsched.Construction { return reqsched.AdversaryFix(4, p) },
			Strategy: reqsched.NewAFix,
		}
	}
	ms, err := reqsched.MeasureParallelChecked(jobs, w)
	if err != nil {
		return fail(err)
	}
	for i, p := range phaseCounts {
		fmt.Fprintf(stdout, "  phases %4d: ratio %.4f\n", p, ms[i].Ratio())
	}

	section("Tie-breaking ablation: what does each adversary exploit?")
	fixTrace := reqsched.AdversaryFix(4, cfg.Phases).Trace
	eagerTrace := reqsched.AdversaryEager(4, cfg.Phases).Trace
	ablation := []struct {
		name string
		tr   *reqsched.Trace
		mk   func() reqsched.Strategy
	}{
		{"fix adversary, original       ", fixTrace, reqsched.NewAFix},
		{"fix adversary, shuffled alts  ", reqsched.ShuffleAlts(fixTrace, 1), reqsched.NewAFix},
		{"fix adversary, shuffled order ", reqsched.ShuffleArrivalOrder(fixTrace, 1), reqsched.NewAFix},
		{"eager adversary, original     ", eagerTrace, reqsched.NewAEager},
		{"eager adversary, shuffled alts", reqsched.ShuffleAlts(eagerTrace, 1), reqsched.NewAEager},
		{"eager adversary, shuffled ord ", reqsched.ShuffleArrivalOrder(eagerTrace, 1), reqsched.NewAEager},
	}
	jobs = jobs[:0]
	for _, r := range ablation {
		jobs = append(jobs, reqsched.MeasureJob{
			Name:     r.name,
			Build:    func() reqsched.Construction { return reqsched.Construction{Name: r.name, Trace: r.tr} },
			Strategy: r.mk,
		})
	}
	ms, err = reqsched.MeasureParallelChecked(jobs, w)
	if err != nil {
		return fail(err)
	}
	for i, r := range ablation {
		fmt.Fprintf(stdout, "  %s ratio %.4f\n", r.name, ms[i].Ratio())
	}

	section("Observation 3.1/3.2 — EDF")
	single := reqsched.SingleChoice(reqsched.WorkloadConfig{N: 4, D: 4, Rounds: 60, Rate: 6, Seed: 2})
	edf := reqsched.Run(reqsched.NewEDF(), single)
	fmt.Fprintf(stdout, "  single-choice: EDF %d == OPT %d (greedy EDS %d)\n",
		edf.Fulfilled, reqsched.OptimumParallel(single, w), reqsched.EarliestDeadlineSchedule(single))
	worstJobs := []reqsched.MeasureJob{{
		Name:     "EDF worst case",
		Build:    func() reqsched.Construction { return reqsched.AdversaryEDF(4, cfg.Phases) },
		Strategy: reqsched.NewEDF,
	}}
	ms, err = reqsched.MeasureParallelChecked(worstJobs, w)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "  two-choice worst case: ratio %.4f (exactly 2)\n", ms[0].Ratio())

	section("Weighted extension — segmented offline optima (profit, min latency)")
	weighted := reqsched.WithWeights(reqsched.Bursty(reqsched.WorkloadConfig{
		N: 8, D: 4, Rounds: 400, Rate: 0, Seed: 7}, 12, 20, 14), 8, 7)
	profit := reqsched.MaxProfitParallel(weighted, w)
	fmt.Fprintf(stdout, "  bursty weighted workload: %d requests, %d segments\n",
		weighted.NumRequests(), reqsched.TraceSegmentCount(weighted))
	fmt.Fprintf(stdout, "  max profit (segmented): %d\n", profit)
	for _, s := range []reqsched.Strategy{reqsched.NewFixWeighted(), reqsched.NewEagerWeighted()} {
		res := reqsched.Run(s, weighted)
		fmt.Fprintf(stdout, "  %-17s weight served %6d  profit ratio %.4f\n",
			s.Name()+":", res.WeightFulfilled, float64(profit)/float64(res.WeightFulfilled))
	}
	_, latency := reqsched.OptimumMinLatencyParallel(weighted, w)
	fmt.Fprintf(stdout, "  min total latency among max-cardinality schedules: %d\n", latency)

	section("Adaptive adversary, streamed (Theorem 2.6): OPT computed segment by segment")
	for _, mk := range []func() reqsched.Strategy{reqsched.NewAEager, reqsched.NewEDF} {
		s := mk()
		m, nsegs := reqsched.MeasureAdaptiveStream(s, reqsched.AdversaryUniversal(6, maxInt(5, cfg.Phases/2)).Source)
		fmt.Fprintf(stdout, "  %-12s ratio %.4f  (%d segments, trace never materialized)\n",
			s.Name()+":", m.Ratio(), nsegs)
	}

	section("Random two-choice load (uniform, rate 0.9n): mean ratio over seeds")
	sum, err := reqsched.SummarizeParallel(reqsched.NewABalance, func(seed int64) *reqsched.Trace {
		return reqsched.Uniform(reqsched.WorkloadConfig{N: 16, D: 4, Rounds: 100, Rate: 14.4, Seed: seed})
	}, 20, w)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "  %s\n", sum)

	section("Section 1.1 — the power of two choices (balls into bins, n = 100000)")
	for _, c := range []int{1, 2, 3} {
		fmt.Fprintf(stdout, "  c=%d: max load %d\n", c, ballsbins.MaxLoad(ballsbins.Greedy(100000, 100000, c, 1)))
	}
	cres := ballsbins.Collision(100000, 100000, 2, 4, 40, 1)
	fmt.Fprintf(stdout, "  collision protocol: placed all in %d communication rounds\n", cres.Rounds)
	return 0
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
