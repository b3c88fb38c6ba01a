package registry

import (
	"reqsched/internal/core"
	"reqsched/internal/local"
	"reqsched/internal/strategies"
)

// seedParam is the schema of the two randomized strategies.
var seedParam = Param{
	Name: "seed", Doc: "random seed", Type: Int, Default: IntVal(1),
}

// strategy registers a parameterless strategy under its Name(). Every
// strategy schema carries the service-model group: the values do not change
// construction (the run's model comes from the trace, or serve's -hold/-cap
// flags), but "name,hold=k,cap=c" specs validate the strategy's support up
// front, so every frontend rejects unsupported combinations at parse time.
func strategy(doc string, listed bool, mk func() core.Strategy) {
	ctor := func(Params) core.Strategy { return mk() }
	Register(Component{
		Kind: KindStrategy, Name: mk().Name(), Doc: doc, Listed: listed,
		Params:   ModelParams(),
		Check:    modelCheck(ctor),
		Strategy: ctor,
	})
}

func init() {
	// The five global strategies of Table 1, the EDF references, and the
	// baselines — the set CLIs iterate by default (Listed).
	strategy("A_fix: admit a maximum set of new arrivals each round, never reschedule (Thm 2.1: ratio exactly 2-1/d)",
		true, func() core.Strategy { return strategies.NewFix() })
	strategy("A_current: maximum matching on the current round's slots only (Thm 2.2: between e/(e-1) and 2-1/d)",
		true, func() core.Strategy { return strategies.NewCurrent() })
	strategy("A_fix_balance: A_fix filling the earliest rounds first (Thm 2.3)",
		true, func() core.Strategy { return strategies.NewFixBalance() })
	strategy("A_eager: recompute a maximum matching every round, maximizing current service (Thm 2.4)",
		true, func() core.Strategy { return strategies.NewEager() })
	strategy("A_balance: A_eager with the full balance objective F — the paper's best simple strategy (Thm 2.5)",
		true, func() core.Strategy { return strategies.NewBalance() })
	strategy("independent-copies Earliest Deadline First (Obs 3.1/3.2: optimal single-choice, exactly 2 with two)",
		true, func() core.Strategy { return strategies.NewEDF() })
	strategy("EDF ablation that cancels sibling copies",
		true, func() core.Strategy { return strategies.NewEDFCoordinated() })
	strategy("first-fit baseline: earliest free slot on the first listed alternative",
		true, func() core.Strategy { return strategies.NewFirstFit() })

	// Local (distributed, message-passing) strategies.
	strategy("A_local_fix: two communication rounds per scheduling round, exactly 2-competitive (Thm 3.7)",
		true, func() core.Strategy { return local.NewFix() })
	strategy("A_local_eager: at most nine communication rounds per scheduling round, 5/3-competitive (Thm 3.8)",
		true, func() core.Strategy { return local.NewEager() })
	strategy("A_local_eager with a 2d-2 mailbox (only the capacity differs; same communication rounds)",
		true, func() core.Strategy { return local.NewEagerWide() })

	// Weighted extension strategies (unlisted: they target weighted traces).
	strategy("weighted A_fix: heaviest arrivals admitted first, never reschedules",
		false, func() core.Strategy { return strategies.NewFixWeighted() })
	strategy("weighted rescheduler: maximum-total-weight matching every round",
		false, func() core.Strategy { return strategies.NewEagerWeighted() })

	// Randomized strategies (unlisted: parameterized by a seed).
	randomFit := func(p Params) core.Strategy {
		return strategies.NewRandomFit(p.Int64("seed"))
	}
	Register(Component{
		Kind: KindStrategy, Name: "random_fit",
		Doc:      "seeded random-slot baseline",
		Params:   append([]Param{seedParam}, ModelParams()...),
		Check:    modelCheck(randomFit),
		Strategy: randomFit,
	})
	ranking := func(p Params) core.Strategy {
		return strategies.NewRanking(p.Int64("seed"))
	}
	Register(Component{
		Kind: KindStrategy, Name: "ranking",
		Doc:      "RANKING-style randomized strategy: random fixed slot ranks, greedy minimum-rank assignment [KVV90]",
		Params:   append([]Param{seedParam}, ModelParams()...),
		Check:    modelCheck(ranking),
		Strategy: ranking,
	})
}
