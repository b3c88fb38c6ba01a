package registry

import (
	"fmt"

	"reqsched/internal/core"
	"reqsched/internal/workload"
)

// baseParams is the workload.Config schema every generator shares. The
// names match the grid.BuildSpec JSON fields. Rate 0 means "no background
// arrivals"; the CLI frontends keep their historical "0 -> n" defaulting.
func baseParams() []Param {
	return []Param{
		{Name: "n", Doc: "resources", Type: Int, Default: IntVal(8), Min: Bound(1)},
		{Name: "d", Doc: "deadline window", Type: Int, Default: IntVal(4), Min: Bound(1)},
		{Name: "rounds", Doc: "rounds with arrivals", Type: Int, Default: IntVal(100), Min: Bound(0)},
		{Name: "rate", Doc: "mean arrivals per round (Poisson; 0 = none)", Type: Float, Default: FloatVal(0), Min: Bound(0)},
		{Name: "seed", Doc: "random seed", Type: Int, Default: IntVal(1)},
	}
}

func cfgOf(p Params) workload.Config {
	return workload.Config{
		N: p.Int("n"), D: p.Int("d"), Rounds: p.Int("rounds"),
		Rate: p.Float("rate"), Seed: p.Int64("seed"),
	}
}

// generator registers a workload component with the base schema plus
// extras. The checks reject parameter combinations the per-parameter bounds
// cannot express and the generator would panic on.
func generator(name, doc string, extra []Param, gen func(Params) *core.Trace, checks ...func(Params) error) {
	Register(Component{
		Kind: KindWorkload, Name: name, Doc: doc,
		Params: append(append(baseParams(), extra...), ModelParams()...),
		Check: func(p Params) error {
			for _, check := range checks {
				if err := check(p); err != nil {
					return err
				}
			}
			return nil
		},
		// Every workload runs under any service model: the generator shapes
		// the arrivals, the model group stamps the trace. The zero (unit)
		// model is left as the zero value so default traces stay bit-identical
		// to the pre-model format.
		Generate: func(p Params) *core.Trace {
			tr := gen(p)
			if m := ModelOf(p); !m.IsUnit() {
				tr.Model = m
			}
			return tr
		},
	})
}

// zipfExponent rejects s <= 1, where math/rand's Zipf sampler is undefined.
func zipfExponent(p Params) error {
	if p.Float("s") <= 1 {
		return fmt.Errorf("needs zipf exponent s > 1")
	}
	return nil
}

// twoChoice rejects n < 2: a two-choice request names two distinct
// resources.
func twoChoice(p Params) error {
	if p.Int("n") < 2 {
		return fmt.Errorf("two-choice traffic needs n >= 2")
	}
	return nil
}

// choicesFit rejects c > n: a request's c alternatives are distinct
// resources.
func choicesFit(p Params) error {
	if p.Int("c") > p.Int("n") {
		return fmt.Errorf("needs c <= n (%d alternatives, %d resources)", p.Int("c"), p.Int("n"))
	}
	return nil
}

// trapRoom rejects n < 6: the traps take two resources and the background
// needs the rest.
func trapRoom(p Params) error {
	if p.Int("n") < 6 {
		return fmt.Errorf("needs n >= 6 (two trap resources + background)")
	}
	return nil
}

func init() {
	generator("uniform", "uniformly random two-choice traffic", nil,
		func(p Params) *core.Trace { return workload.Uniform(cfgOf(p)) }, twoChoice)
	generator("zipf", "hot-spot traffic with Zipf-distributed first alternatives",
		[]Param{{Name: "s", Doc: "zipf exponent (> 1)", Type: Float, Default: FloatVal(1.4)}},
		func(p Params) *core.Trace { return workload.Zipf(cfgOf(p), p.Float("s")) },
		twoChoice, zipfExponent)
	generator("bursty", "on/off correlated traffic (rate during quiet rounds, burst during on-rounds)",
		[]Param{
			{Name: "on", Doc: "burst length in rounds", Type: Int, Default: IntVal(5), Min: Bound(1)},
			{Name: "off", Doc: "quiet length in rounds", Type: Int, Default: IntVal(10), Min: Bound(0)},
			{Name: "burst", Doc: "arrivals per round inside a burst", Type: Float, Default: FloatVal(24), Min: Bound(0)},
		},
		func(p Params) *core.Trace {
			return workload.Bursty(cfgOf(p), p.Int("on"), p.Int("off"), p.Float("burst"))
		}, twoChoice)
	generator("video", "the paper's motivating video-on-demand catalog with Zipf popularity",
		[]Param{
			{Name: "items", Doc: "catalog size", Type: Int, Default: IntVal(100), Min: Bound(2)},
			{Name: "s", Doc: "zipf popularity exponent (> 1)", Type: Float, Default: FloatVal(1.4)},
		},
		func(p Params) *core.Trace {
			return workload.VideoServer(cfgOf(p), p.Int("items"), p.Float("s"))
		}, twoChoice, zipfExponent)
	generator("single", "one-alternative traffic (Observation 3.1)", nil,
		func(p Params) *core.Trace { return workload.SingleChoice(cfgOf(p)) })
	generator("cchoice", "c-alternative traffic (the EDF extension)",
		[]Param{{Name: "c", Doc: "alternatives per request", Type: Int, Default: IntVal(3), Min: Bound(1)}},
		func(p Params) *core.Trace { return workload.CChoice(cfgOf(p), p.Int("c")) }, choicesFit)
	generator("mixed", "two-choice traffic with per-request deadline windows drawn from [1, d]", nil,
		func(p Params) *core.Trace { return workload.MixedDeadlines(cfgOf(p)) }, twoChoice)
	generator("weighted", "uniform two-choice traffic with 1/w-distributed weights in {1..maxw}",
		[]Param{{Name: "maxw", Doc: "maximum request weight", Type: Int, Default: IntVal(8), Min: Bound(1)}},
		func(p Params) *core.Trace { return workload.Weighted(cfgOf(p), p.Int("maxw")) }, twoChoice)
	generator("trapmix", "random background traffic with Theorem 2.1-style traps embedded every trap_every rounds",
		[]Param{{Name: "trap_every", Doc: "rounds between embedded traps", Type: Int, Default: IntVal(20), Min: Bound(1)}},
		func(p Params) *core.Trace { return workload.TrapMix(cfgOf(p), p.Int("trap_every")) }, trapRoom)
	generator("reusable", "two-choice traffic sized to the service model's capacity (rate 0: load x n x cap / hold)",
		[]Param{{Name: "load", Doc: "target utilization of the model's n*cap/hold starts per round (used when rate = 0)",
			Type: Float, Default: FloatVal(0.9), Min: Bound(0)}},
		func(p Params) *core.Trace {
			return workload.Reusable(cfgOf(p), ModelOf(p), p.Float("load"))
		}, twoChoice)
}
