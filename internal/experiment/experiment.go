// Package experiment runs declarative experiment suites: a JSON document
// names a workload family, a set of strategies and a seed count, and the
// runner produces per-strategy competitive-ratio summaries against the
// offline optimum. This is the reproducible-config surface a downstream
// user scripts against (cmd/schedsim -config).
package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"reqsched/internal/core"
	"reqsched/internal/offline"
	"reqsched/internal/ratio"
	"reqsched/internal/registry"
	"reqsched/internal/workload"
)

// Config is one experiment suite.
type Config struct {
	// Name labels the suite in reports.
	Name string `json:"name"`
	// Workload selects and parameterizes the generator.
	Workload WorkloadSpec `json:"workload"`
	// Strategies lists strategy names (empty = all).
	Strategies []string `json:"strategies,omitempty"`
	// Seeds is the number of seeds to aggregate over (default 1).
	Seeds int `json:"seeds,omitempty"`
	// Workers sizes the worker pool the per-seed simulations and offline
	// optima run on (<= 0: GOMAXPROCS). Results are independent of the
	// worker count: the runner folds measurements in seed order.
	Workers int `json:"workers,omitempty"`
}

// WorkloadSpec parameterizes a workload family.
type WorkloadSpec struct {
	// Kind: uniform | zipf | bursty | video | single | cchoice | mixed.
	Kind string `json:"kind"`
	// N resources, D window, Rounds with arrivals, Rate mean arrivals/round.
	N      int     `json:"n"`
	D      int     `json:"d"`
	Rounds int     `json:"rounds"`
	Rate   float64 `json:"rate"`
	// Zipf exponent (zipf, video); Items catalog size (video); On/Off/Burst
	// (bursty); Choices (cchoice); TrapEvery (trapmix); MaxWeight (weighted).
	Zipf      float64 `json:"zipf,omitempty"`
	Items     int     `json:"items,omitempty"`
	On        int     `json:"on,omitempty"`
	Off       int     `json:"off,omitempty"`
	Burst     float64 `json:"burst,omitempty"`
	Choices   int     `json:"choices,omitempty"`
	TrapEvery int     `json:"trapEvery,omitempty"`
	MaxWeight int     `json:"maxWeight,omitempty"`
}

// validate normalizes defaults and rejects nonsense.
func (c *Config) validate() error {
	w := &c.Workload
	if w.N < 1 || w.D < 1 || w.Rounds < 1 {
		return fmt.Errorf("experiment: need n, d, rounds >= 1 (got %d, %d, %d)", w.N, w.D, w.Rounds)
	}
	if w.Rate <= 0 {
		w.Rate = float64(w.N)
	}
	if c.Seeds <= 0 {
		c.Seeds = 1
	}
	switch w.Kind {
	case "uniform", "zipf", "bursty", "video", "single", "cchoice", "mixed", "trapmix", "weighted":
	default:
		return fmt.Errorf("experiment: unknown workload kind %q", w.Kind)
	}
	if w.Kind == "weighted" && w.MaxWeight < 1 {
		w.MaxWeight = 10
	}
	if w.Kind == "trapmix" {
		if w.N < 6 {
			return fmt.Errorf("experiment: trapmix needs n >= 6")
		}
		if w.TrapEvery < 1 {
			w.TrapEvery = 10
		}
	}
	if w.Kind == "zipf" || w.Kind == "video" {
		if w.Zipf <= 1 {
			w.Zipf = 1.4
		}
	}
	if w.Kind == "video" && w.Items < 2 {
		w.Items = 100
	}
	if w.Kind == "bursty" {
		if w.On < 1 {
			w.On = 5
		}
		if w.Off < 1 {
			w.Off = 10
		}
		if w.Burst <= 0 {
			w.Burst = 3 * w.Rate
		}
	}
	if w.Kind == "cchoice" {
		if w.Choices < 1 || w.Choices > w.N {
			return fmt.Errorf("experiment: choices %d out of range", w.Choices)
		}
	}
	if len(c.Strategies) == 0 {
		for name := range allStrategies() {
			c.Strategies = append(c.Strategies, name)
		}
		sort.Strings(c.Strategies)
	} else {
		for _, name := range c.Strategies {
			if _, ok := strategyFactory(name); !ok {
				return fmt.Errorf("experiment: unknown strategy %q", name)
			}
		}
	}
	return nil
}

// strategyFactory resolves a suite strategy entry: a parameterless listed
// name from allStrategies, or any registry strategy spec such as
// "compose,router=greedy,order=sjf" — so suites can compare composed
// policies against the fused strategies.
func strategyFactory(name string) (func() core.Strategy, bool) {
	if mk, ok := allStrategies()[name]; ok {
		return mk, true
	}
	if _, err := registry.NewStrategySpec(name); err != nil {
		return nil, false
	}
	return func() core.Strategy {
		s, err := registry.NewStrategySpec(name)
		if err != nil {
			panic(err) // unreachable: spec validated at resolution
		}
		return s
	}, true
}

// allStrategies exposes every parameterless registered strategy to suite
// configs — the registry's listed set plus the weighted extensions. The two
// seed-parameterized randomized strategies are excluded: a suite names a
// deterministic algorithm, the seeds axis belongs to the workload.
func allStrategies() map[string]func() core.Strategy {
	m := make(map[string]func() core.Strategy)
	for _, c := range registry.All(registry.KindStrategy) {
		// Grouped parameters (the shared service-model group) don't make a
		// strategy "parameterized" — only a schema of its own (seeds, axes)
		// does.
		own := false
		for _, p := range c.Params {
			if p.Group == "" {
				own = true
				break
			}
		}
		if own {
			continue
		}
		name := c.Name
		m[name] = func() core.Strategy {
			s, err := registry.NewStrategy(name, nil)
			if err != nil {
				panic(err) // unreachable: parameterless construction
			}
			return s
		}
	}
	return m
}

// generator returns the seed-indexed trace factory for the spec.
func (w *WorkloadSpec) generator() func(seed int64) *core.Trace {
	cfg := func(seed int64) workload.Config {
		return workload.Config{N: w.N, D: w.D, Rounds: w.Rounds, Rate: w.Rate, Seed: seed}
	}
	switch w.Kind {
	case "uniform":
		return func(s int64) *core.Trace { return workload.Uniform(cfg(s)) }
	case "zipf":
		return func(s int64) *core.Trace { return workload.Zipf(cfg(s), w.Zipf) }
	case "bursty":
		return func(s int64) *core.Trace { return workload.Bursty(cfg(s), w.On, w.Off, w.Burst) }
	case "video":
		return func(s int64) *core.Trace { return workload.VideoServer(cfg(s), w.Items, w.Zipf) }
	case "single":
		return func(s int64) *core.Trace { return workload.SingleChoice(cfg(s)) }
	case "cchoice":
		return func(s int64) *core.Trace { return workload.CChoice(cfg(s), w.Choices) }
	case "mixed":
		return func(s int64) *core.Trace { return workload.MixedDeadlines(cfg(s)) }
	case "trapmix":
		return func(s int64) *core.Trace { return workload.TrapMix(cfg(s), w.TrapEvery) }
	case "weighted":
		return func(s int64) *core.Trace { return workload.Weighted(cfg(s), w.MaxWeight) }
	}
	panic("experiment: unreachable: " + w.Kind)
}

// Load parses and validates a Config from JSON.
func Load(r io.Reader) (*Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("experiment: decode: %w", err)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Row is one strategy's aggregated outcome.
type Row struct {
	Strategy string
	Summary  *ratio.Summary
}

// Report is the outcome of a suite run.
type Report struct {
	Config *Config
	// MeanOptimum is the offline optimum averaged over seeds.
	MeanOptimum float64
	Rows        []Row
}

// Run executes the suite: every strategy against the same seed family. The
// per-seed work (simulation plus segmented offline optimum) runs on a
// Workers-sized pool; the report is identical for every worker count.
func (c *Config) Run() (*Report, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	gen := c.Workload.generator()
	rep := &Report{Config: c}
	optSum := 0
	for seed := int64(0); seed < int64(c.Seeds); seed++ {
		opt, _ := offline.Solve(gen(seed), offline.Cardinality, c.Workers)
		optSum += opt
	}
	rep.MeanOptimum = float64(optSum) / float64(c.Seeds)
	for _, name := range c.Strategies {
		mk, ok := strategyFactory(name)
		if !ok {
			return nil, fmt.Errorf("experiment: unknown strategy %q", name)
		}
		sum, err := ratio.SummarizeParallel(mk, gen, c.Seeds, c.Workers)
		if err != nil {
			return nil, fmt.Errorf("experiment: strategy %s: %w", name, err)
		}
		rep.Rows = append(rep.Rows, Row{Strategy: name, Summary: sum})
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		return rep.Rows[i].Summary.Ratio.Mean() < rep.Rows[j].Summary.Ratio.Mean()
	})
	return rep, nil
}

// Format renders the report as an aligned table, best strategy first.
func (r *Report) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "suite %q: %s workload, n=%d d=%d rounds=%d rate=%.1f, %d seed(s), mean OPT %.1f\n\n",
		r.Config.Name, r.Config.Workload.Kind, r.Config.Workload.N, r.Config.Workload.D,
		r.Config.Workload.Rounds, r.Config.Workload.Rate, r.Config.Seeds, r.MeanOptimum)
	fmt.Fprintf(&sb, "%-20s %10s %9s %9s %10s\n", "strategy", "ratio", "±std", "max", "served")
	for _, row := range r.Rows {
		s := row.Summary
		fmt.Fprintf(&sb, "%-20s %10.4f %9.4f %9.4f %10.1f\n",
			row.Strategy, s.Ratio.Mean(), s.Ratio.Std(), s.Ratio.Max(), s.Served.Mean())
	}
	return sb.String()
}
