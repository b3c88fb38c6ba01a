package app

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"reqsched/internal/adversary"
	"reqsched/internal/grid/chaos"
	"reqsched/internal/ratio"
	"reqsched/internal/registry"
	"reqsched/internal/runner"
)

// splitAddrs parses the -workers-at flag: a comma-separated address list,
// blanks trimmed and dropped.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// iv and fv build registry parameter values from plain Go numbers — the
// record-building shorthand of the frontends.
func iv(v int) registry.Value     { return registry.IntVal(int64(v)) }
func fv(v float64) registry.Value { return registry.FloatVal(v) }

// printer renders measurements as CSV rows. done[i]==false rows (cells that
// failed after retries) are skipped — the failure report names them; nil
// done means every cell completed.
type printer func(ms []ratio.Measurement, done []bool)

// SweepMain is the main program of cmd/sweep: the derived data series of
// the reproduction (DESIGN.md Fig-A/Fig-B) as CSV.
//
//	-mode d     ratio of each strategy on its own adversary as d grows
//	            (the shape of the Table 1 bound formulas);
//	-mode l     A_current's ratio versus l, converging to e/(e-1);
//	-mode load  empirical ratio of every strategy on random load as the
//	            arrival rate sweeps past saturation;
//	-mode model greedy's ratio on reusable-resource traffic over a hold ×
//	            load grid, against the factor-2 charging bound (cf. arXiv
//	            2304.03377).
//
// All modes declare their cells as registry records (strategy, source,
// params) and execute them through the runner pipeline; rows print in a
// fixed order regardless of worker count. -journal/-resume/-shard select
// the fault-tolerant engines; -shard 0 without -journal is the plain
// worker-pool path and produces byte-identical CSV on every path.
func SweepMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("sweep", stderr)
	mode := fs.String("mode", "d", "d | l | load | model")
	phases := fs.Int("phases", 60, phasesUsage)
	workers := workersFlag(fs)
	shard := fs.Int("shard", 0, "gridworker subprocesses (0: measure in-process)")
	journalPath := fs.String("journal", "", "checkpoint journal path (JSONL; enables crash-safe resume)")
	resume := fs.Bool("resume", false, "resume from an existing journal (requires -journal)")
	workerCmd := fs.String("worker-cmd", "", "gridworker command (default: re-exec this binary with -gridworker)")
	jobTimeout := fs.Duration("job-timeout", 5*time.Minute, "per-cell wall-clock deadline (sharded mode)")
	retries := fs.Int("retries", 3, "retry budget per cell before it is marked failed (sharded mode)")
	workersAt := fs.String("workers-at", "", "comma-separated TCP gridworker addresses (host:port,...); runs the cells remotely")
	linkChaos := fs.String("link-chaos", "", "deterministic link fault mode:K[@link] (requires -workers-at; default $"+chaos.EnvLink+")")
	gridworker := fs.Bool("gridworker", false, "internal: speak the gridworker protocol on stdin/stdout")
	list, describe := listingFlags(fs)
	if ok, code := parse(fs, args); !ok {
		return code
	}
	if handled, code := listing(*list, *describe, resolveWorkers(*workers), stdout, stderr); handled {
		return code
	}
	if *gridworker {
		return gridworkerRun(stderr, 2*time.Second)
	}
	if *resume && *journalPath == "" {
		fmt.Fprintln(stderr, "sweep: -resume requires -journal")
		return 2
	}
	addrs := splitAddrs(*workersAt)
	linkFault, err := chaos.LinkFromEnv()
	if *linkChaos != "" {
		linkFault, err = chaos.ParseLink(*linkChaos)
	}
	if err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 2
	}
	if linkFault != nil && len(addrs) == 0 {
		fmt.Fprintln(stderr, "sweep: -link-chaos requires -workers-at")
		return 2
	}

	var records []runner.Record
	var print printer
	switch *mode {
	case "d":
		records, print = sweepD(*phases, stdout)
	case "l":
		records, print = sweepL(stdout)
	case "load":
		records, print = sweepLoad(stdout)
	case "model":
		records, print = sweepModel(stdout)
	default:
		fmt.Fprintf(stderr, "unknown mode %q\n", *mode)
		return 2
	}
	jobs, err := runner.Manifest(records)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	var cmd []string
	if *workerCmd != "" {
		cmd = []string{*workerCmd}
	}
	res, err := runner.Run(context.Background(), jobs, runner.Options{
		Tool:        "sweep",
		Workers:     resolveWorkers(*workers),
		Shard:       *shard,
		JournalPath: *journalPath,
		Resume:      *resume,
		WorkerCmd:   cmd,
		JobTimeout:  *jobTimeout,
		Retries:     *retries,
		WorkersAt:   addrs,
		LinkFault:   linkFault,
		Signals:     true,
		Log:         stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if res.Interrupted {
		return 130
	}
	print(res.Measurements, res.Done)
	if res.FailureReport != "" {
		fmt.Fprint(stderr, res.FailureReport)
		return 1
	}
	return 0
}

func sweepD(phases int, stdout io.Writer) ([]runner.Record, printer) {
	type point struct {
		name string
		d    int
	}
	dp := func(d int) registry.Params {
		return registry.Params{"d": iv(d), "phases": iv(phases)}
	}
	type row struct {
		name   string
		source string
		params func(d int) registry.Params
		ds     []int
	}
	rows := []row{
		{"A_fix", "fix", dp, []int{2, 3, 4, 6, 8, 12, 16, 24}},
		{"A_fix_balance", "fix_balance", dp, []int{2, 4, 6, 8, 12, 16, 24}},
		{"A_eager", "eager", dp, []int{2, 4, 6, 8, 12, 16, 24}},
		{"A_balance", "balance",
			func(d int) registry.Params {
				return registry.Params{"x": iv((d + 1) / 3), "k": iv(32), "phases": iv(phases)}
			},
			[]int{2, 5, 8, 11, 14}},
		{"A_local_fix", "local_fix", dp, []int{1, 2, 4, 8, 16}},
	}
	var records []runner.Record
	var points []point
	for _, r := range rows {
		for _, d := range r.ds {
			records = append(records, runner.Record{
				Name:     fmt.Sprintf("%s/d=%d", r.name, d),
				Strategy: r.name,
				Source:   r.source,
				Params:   r.params(d),
			})
			points = append(points, point{r.name, d})
		}
	}
	print := func(ms []ratio.Measurement, done []bool) {
		fmt.Fprintln(stdout, "strategy,d,opt,alg,measured,provenLB,provenUB")
		for i, m := range ms {
			if done != nil && !done[i] {
				continue
			}
			p := points[i]
			fmt.Fprintf(stdout, "%s,%d,%d,%d,%s,%.6f,%s\n",
				p.name, p.d, m.OPT, m.ALG, ratio.FormatRatio(m.Ratio(), 6), m.Bound, ub(p.name, p.d))
		}
	}
	return records, print
}

func ub(name string, d int) string {
	if _, err := registry.NewStrategy(name, nil); err != nil {
		return ""
	}
	// UpperBound formulas mirror Table 1; reuse the measurement bound field
	// by probing a tiny run is overkill — recompute directly.
	switch name {
	case "A_fix", "A_current", "A_local_fix":
		if name == "A_local_fix" {
			return "2.000000"
		}
		return fmt.Sprintf("%.6f", 2-1/float64(d))
	case "A_fix_balance":
		b := 4.0 / 3.0
		if v := 2 - 2/float64(d); v > b {
			b = v
		}
		if v := 2 - 3/(float64(d)+2); v > b {
			b = v
		}
		return fmt.Sprintf("%.6f", b)
	case "A_eager":
		return fmt.Sprintf("%.6f", (3*float64(d)-2)/(2*float64(d)-1))
	case "A_balance":
		if d == 2 {
			return fmt.Sprintf("%.6f", 4.0/3.0)
		}
		return fmt.Sprintf("%.6f", 6*(float64(d)-1)/(4*float64(d)-3))
	}
	return ""
}

func sweepL(stdout io.Writer) ([]runner.Record, printer) {
	ls := []int{2, 3, 4, 5, 6, 7}
	var records []runner.Record
	for _, l := range ls {
		records = append(records, runner.Record{
			Name:     fmt.Sprintf("l=%d", l),
			Strategy: "A_current",
			Source:   "current",
			Params:   registry.Params{"l": iv(l), "phases": iv(5)},
		})
	}
	print := func(ms []ratio.Measurement, done []bool) {
		fmt.Fprintln(stdout, "l,d,opt,alg,measured,analytic,asymptote")
		for i, m := range ms {
			if done != nil && !done[i] {
				continue
			}
			l := ls[i]
			fmt.Fprintf(stdout, "%d,%d,%d,%d,%s,%.6f,%.6f\n",
				l, m.D, m.OPT, m.ALG, ratio.FormatRatio(m.Ratio(), 6), adversary.CurrentBound(l), 1.5819767)
		}
	}
	return records, print
}

func sweepLoad(stdout io.Writer) ([]runner.Record, printer) {
	n, d := 8, 4
	fracs := []float64{0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 3.0}
	snames := make([]string, 0)
	for name := range registry.ListedStrategies() {
		snames = append(snames, name)
	}
	sort.Strings(snames)

	type point struct {
		name string
		frac float64
	}
	var records []runner.Record
	var points []point
	for _, frac := range fracs {
		for _, name := range snames {
			records = append(records, runner.Record{
				Name:     fmt.Sprintf("%s@%.2f", name, frac),
				Strategy: name,
				Source:   "uniform",
				// The seeded trace is deterministic in the spec. The
				// in-process pool builds it once for the strategies of one
				// rate and runs them on it read-only; worker processes
				// rebuild it per cell.
				Params: registry.Params{
					"n": iv(n), "d": iv(d), "rounds": iv(150),
					"rate": fv(frac * float64(n)), "seed": iv(7),
				},
			})
			points = append(points, point{name, frac})
		}
	}
	print := func(ms []ratio.Measurement, done []bool) {
		fmt.Fprintln(stdout, "strategy,rate,opt,alg,measured")
		for i, m := range ms {
			if done != nil && !done[i] {
				continue
			}
			p := points[i]
			fmt.Fprintf(stdout, "%s,%.2f,%d,%d,%s\n", p.name, p.frac, m.OPT, m.ALG, ratio.FormatRatio(m.Ratio(), 6))
		}
	}
	return records, print
}

// sweepModel grids the greedy router over reusable-resource traffic: hold ×
// load, capacity 2, with the epoch-relaxed offline optimum as the
// denominator. The greedyUB column is the factor-2 charging bound (each hold
// window absorbs at most cap optimal starts; tight on hold_squeeze), which
// Baek–Wang sharpen in the windowless reusable model (arXiv 2304.03377).
func sweepModel(stdout io.Writer) ([]runner.Record, printer) {
	n, d := 8, 4
	holds := []int{1, 2, 4, 8}
	loads := []float64{0.5, 0.9, 1.5}

	type point struct {
		hold int
		load float64
	}
	var records []runner.Record
	var points []point
	for _, h := range holds {
		for _, load := range loads {
			records = append(records, runner.Record{
				Name:     fmt.Sprintf("greedy/hold=%d@%.2f", h, load),
				Strategy: "compose,router=greedy",
				Source:   "reusable",
				Params: registry.Params{
					"n": iv(n), "d": iv(d), "rounds": iv(200), "seed": iv(7),
					"hold": iv(h), "cap": iv(2), "load": fv(load),
				},
			})
			points = append(points, point{h, load})
		}
	}
	print := func(ms []ratio.Measurement, done []bool) {
		fmt.Fprintln(stdout, "strategy,hold,cap,load,opt,alg,measured,greedyUB")
		for i, m := range ms {
			if done != nil && !done[i] {
				continue
			}
			p := points[i]
			fmt.Fprintf(stdout, "greedy,%d,2,%.2f,%d,%d,%s,2.000000\n",
				p.hold, p.load, m.OPT, m.ALG, ratio.FormatRatio(m.Ratio(), 6))
		}
	}
	return records, print
}
