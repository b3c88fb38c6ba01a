// Package table regenerates the paper's Table 1: for every strategy row it
// runs the matching lower-bound adversary, measures OPT/ALG, and pairs the
// measurement with the proven lower and upper bounds. Used by cmd/table1 and
// the benchmark harness. Every row is a registry record (strategy name,
// adversary name, params) measured through the same grid manifest pipeline
// as cmd/sweep, so a row is reproducible from its labels alone.
package table

import (
	"fmt"
	"strings"

	"reqsched/internal/adversary"
	"reqsched/internal/grid"
	"reqsched/internal/ratio"
	"reqsched/internal/registry"
	"reqsched/internal/strategies"
)

// Entry is one measured cell of the Table 1 reproduction.
type Entry struct {
	Row      string // strategy name (Table 1 row)
	Param    string // the construction's natural parameter, e.g. "d=4"
	Theorem  string
	D        int
	OPT, ALG int
	ProvenLB float64
	LBNote   string // "asympt." when the proven LB is a limit
	ProvenUB float64
}

// Measured returns the empirical ratio OPT/ALG.
func (e Entry) Measured() float64 {
	if e.ALG == 0 {
		return 0
	}
	return float64(e.OPT) / float64(e.ALG)
}

// Config controls the reproduction's scale.
type Config struct {
	// Phases is the number of adversary phases/intervals (the additive
	// constant washes out as it grows).
	Phases int
	// Groups is the group count for the Theorem 2.5 construction (its
	// bound holds in the limit of many groups).
	Groups int
}

func entry(row, param, theorem string, d int, m ratio.Measurement) Entry {
	lb, asym, _ := strategies.LowerBound(row, d)
	ub, _ := strategies.UpperBound(row, d)
	note := ""
	if asym {
		note = "asympt."
	}
	return Entry{
		Row: row, Param: param, Theorem: theorem, D: d,
		OPT: m.OPT, ALG: m.ALG,
		ProvenLB: lb, LBNote: note, ProvenUB: ub,
	}
}

// rowSpec is one Table 1 cell, declared once as a registry record — strategy
// and adversary by name plus the construction's parameters — and measured on
// the ratio worker pool through the grid manifest pipeline.
type rowSpec struct {
	row, param, theorem string
	d                   int
	strategy, source    string
	params              registry.Params
	// universal marks Row 6 cells: relabel "any (strategy)" and attach the
	// universal lower bound instead of the strategy's own.
	universal bool
	// bounds overrides the strategies.LowerBound/UpperBound lookup — the
	// service-model rows' greedy bounds come from the reusable-resources
	// literature, not the paper's Table 1.
	bounds bool
	lb, ub float64
	lbNote string
}

func iv(v int) registry.Value { return registry.IntVal(int64(v)) }

// rowSpecs declares every Table 1 row on its lower-bound construction across
// a spread of deadline windows.
func rowSpecs(cfg Config) []rowSpec {
	var specs []rowSpec
	add := func(row, param, theorem string, d int, source string, params registry.Params) {
		specs = append(specs, rowSpec{row: row, param: param, theorem: theorem,
			d: d, strategy: row, source: source, params: params})
	}

	// Row 1: A_fix, Theorem 2.1, LB = UB = 2 - 1/d.
	for _, d := range []int{2, 3, 4, 8, 16} {
		add("A_fix", fmt.Sprintf("d=%d", d), "Thm 2.1", d,
			"fix", registry.Params{"d": iv(d), "phases": iv(cfg.Phases)})
	}

	// Row 2: A_current. d=2 via the Theorem 2.4 construction; growing l via
	// Theorem 2.2 (d = lcm(1..l)), converging to e/(e-1).
	add("A_current", "d=2", "Thm 2.4", 2,
		"eager", registry.Params{"d": iv(2), "phases": iv(cfg.Phases)})
	for _, l := range []int{3, 4, 5, 6} {
		d := adversary.Current(l, 2).D // d = lcm(1..l), read off a throwaway build
		add("A_current", fmt.Sprintf("l=%d,d=%d", l, d), "Thm 2.2", d,
			"current", registry.Params{"l": iv(l), "phases": iv(max(2, cfg.Phases/8))})
	}

	// Row 3: A_fix_balance. d=2 via Theorem 2.4; even d via Theorem 2.3.
	add("A_fix_balance", "d=2", "Thm 2.4", 2,
		"eager", registry.Params{"d": iv(2), "phases": iv(cfg.Phases)})
	for _, d := range []int{4, 8, 12, 16} {
		add("A_fix_balance", fmt.Sprintf("d=%d", d), "Thm 2.3", d,
			"fix_balance", registry.Params{"d": iv(d), "phases": iv(cfg.Phases)})
	}

	// Row 4: A_eager, Theorem 2.4, LB 4/3 for all d.
	for _, d := range []int{2, 4, 8, 16} {
		add("A_eager", fmt.Sprintf("d=%d", d), "Thm 2.4", d,
			"eager", registry.Params{"d": iv(d), "phases": iv(cfg.Phases)})
	}

	// Row 5: A_balance. d=2 via Theorem 2.4; d=3x-1 via Theorem 2.5.
	add("A_balance", "d=2", "Thm 2.4", 2,
		"eager", registry.Params{"d": iv(2), "phases": iv(cfg.Phases)})
	for _, x := range []int{1, 2, 3, 4} {
		d := 3*x - 1
		add("A_balance", fmt.Sprintf("x=%d,k=%d", x, cfg.Groups), "Thm 2.5", d,
			"balance", registry.Params{"x": iv(x), "k": iv(cfg.Groups), "phases": iv(cfg.Phases)})
	}

	// Row 6: the universal adversary versus every deterministic strategy.
	for _, name := range universalTargets() {
		specs = append(specs, rowSpec{
			row: name, param: "d=6", theorem: "Thm 2.6", d: 6,
			strategy: name, source: "universal",
			params:    registry.Params{"d": iv(6), "phases": iv(max(5, cfg.Phases/2))},
			universal: true,
		})
	}
	return specs
}

// localRowSpecs declares the local-strategy rows (Theorems 3.7, 3.8) and
// EDF's exactly-2 family (Observation 3.2).
func localRowSpecs(cfg Config) []rowSpec {
	var specs []rowSpec
	for _, d := range []int{2, 4, 8} {
		specs = append(specs, rowSpec{
			row: "A_local_fix", param: fmt.Sprintf("d=%d", d), theorem: "Thm 3.7", d: d,
			strategy: "A_local_fix", source: "local_fix",
			params: registry.Params{"d": iv(d), "phases": iv(cfg.Phases)},
		})
	}
	for _, d := range []int{2, 4, 8} {
		specs = append(specs, rowSpec{
			row: "A_local_eager", param: fmt.Sprintf("d=%d", d), theorem: "Thm 3.8", d: d,
			strategy: "A_local_eager", source: "local_fix",
			params: registry.Params{"d": iv(d), "phases": iv(cfg.Phases)},
		})
	}
	for _, d := range []int{2, 4} {
		specs = append(specs, rowSpec{
			row: "EDF", param: fmt.Sprintf("d=%d", d), theorem: "Obs 3.2", d: d,
			strategy: "EDF", source: "edf",
			params: registry.Params{"d": iv(d), "phases": iv(cfg.Phases)},
		})
	}
	return specs
}

// modelRowSpecs declares the reusable-resources rows: the greedy router under
// hold=k service models. The hold_squeeze construction forces the greedy /
// maximal-matching charging-argument factor 2 exactly (each hold window
// absorbs at most cap optimal starts); the Baek–Wang analysis (arXiv
// 2304.03377) sharpens the guarantee in the windowless reusable model, so
// the reusable-workload rows report how far below 2 greedy sits on stochastic
// traffic at the same hold.
func modelRowSpecs(cfg Config) []rowSpec {
	const greedy = "compose,router=greedy"
	var specs []rowSpec
	for _, h := range []int{2, 4, 8} {
		specs = append(specs, rowSpec{
			row: "greedy", param: fmt.Sprintf("hold=%d", h), theorem: "charging", d: h - 1,
			strategy: greedy, source: "hold_squeeze",
			params: registry.Params{"hold": iv(h), "phases": iv(cfg.Phases)},
			bounds: true, lb: 2, ub: 2, lbNote: "exact",
		})
	}
	for _, h := range []int{2, 4, 8} {
		specs = append(specs, rowSpec{
			row: "greedy", param: fmt.Sprintf("hold=%d,cap=2", h), theorem: "BW 23", d: 4,
			strategy: greedy, source: "reusable",
			params: registry.Params{
				"n": iv(8), "d": iv(4), "rounds": iv(300), "seed": iv(1),
				"hold": iv(h), "cap": iv(2),
			},
			bounds: true, ub: 2,
		})
	}
	return specs
}

// measureSpecs resolves the specs into a grid manifest and measures it on the
// ratio worker pool (workers <= 0: GOMAXPROCS), converting the
// measurements, in spec order, into entries. Every job is independent and
// deterministic, so the output does not depend on workers.
func measureSpecs(specs []rowSpec, workers int) ([]Entry, error) {
	gspecs := make([]grid.Spec, len(specs))
	names := make([]string, len(specs))
	for i, sp := range specs {
		gs, err := grid.SpecFor(sp.strategy, sp.source, sp.params)
		if err != nil {
			return nil, fmt.Errorf("table: row %s %s: %w", sp.row, sp.param, err)
		}
		gspecs[i] = gs
		names[i] = sp.row + " " + sp.param
	}
	jobs, err := grid.BuildManifest(gspecs, names)
	if err != nil {
		return nil, err
	}
	ms, err := ratio.RunParallelChecked(grid.RatioJobs(jobs), workers)
	if err != nil {
		return nil, err
	}
	out := make([]Entry, len(specs))
	for i, sp := range specs {
		e := entry(sp.row, sp.param, sp.theorem, sp.d, ms[i])
		if sp.universal {
			e.Row = "any (" + sp.row + ")"
			e.ProvenLB = strategies.UniversalLowerBound()
			e.LBNote = "universal"
		}
		if sp.bounds {
			e.ProvenLB, e.ProvenUB, e.LBNote = sp.lb, sp.ub, sp.lbNote
		}
		out[i] = e
	}
	return out, nil
}

// RowsParallel measures every Table 1 row on its lower-bound construction
// across a spread of deadline windows, on the ratio worker pool. Every cell
// is an independent deterministic measurement, so the entries do not depend
// on workers; job panics surface as an error.
func RowsParallel(cfg Config, workers int) ([]Entry, error) {
	return measureSpecs(rowSpecs(cfg), workers)
}

// LocalRowsParallel measures the local strategies (Theorems 3.7, 3.8) and
// EDF's exactly-2 family on the ratio worker pool.
func LocalRowsParallel(cfg Config, workers int) ([]Entry, error) {
	return measureSpecs(localRowSpecs(cfg), workers)
}

// ModelRowsParallel measures the reusable-resources rows (greedy under
// hold=k service models) on the ratio worker pool.
func ModelRowsParallel(cfg Config, workers int) ([]Entry, error) {
	return measureSpecs(modelRowSpecs(cfg), workers)
}

// Format renders entries as an aligned text table.
func Format(entries []Entry) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %-12s %-9s %8s %8s %9s %9s %-8s %9s %s\n",
		"strategy", "param", "theorem", "OPT", "ALG", "measured", "provenLB", "", "provenUB", "UB ok")
	for _, e := range entries {
		ok := "yes"
		if e.ProvenUB > 0 && e.Measured() > e.ProvenUB+1e-9 {
			ok = "VIOLATED"
		}
		lb := fmt.Sprintf("%9.4f", e.ProvenLB)
		if e.ProvenLB == 0 {
			lb = "        —" // the paper proves no lower bound for this row
		}
		fmt.Fprintf(&sb, "%-22s %-12s %-9s %8d %8d %9.4f %s %-8s %9.4f %s\n",
			e.Row, e.Param, e.Theorem, e.OPT, e.ALG, e.Measured(), lb, e.LBNote, e.ProvenUB, ok)
	}
	return sb.String()
}

// universalTargets lists every deterministic strategy Row 6 pits against the
// universal adversary, in the paper's row order.
func universalTargets() []string {
	return []string{
		"A_fix", "A_current", "A_fix_balance", "A_eager", "A_balance",
		"EDF", "first_fit", "A_local_fix", "A_local_eager",
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
