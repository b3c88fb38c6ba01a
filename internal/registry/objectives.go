package registry

import (
	"reqsched/internal/core"
	"reqsched/internal/offline"
)

func init() {
	Register(Component{
		Kind: KindObjective, Name: "cardinality",
		Doc: "maximum number of requests an offline schedule serves (the competitive-ratio denominator's OPT)",
		Evaluate: func(tr *core.Trace, workers int) int {
			opt, _ := offline.Solve(tr, offline.Cardinality, workers)
			return opt
		},
	})
	Register(Component{
		Kind: KindObjective, Name: "max_profit",
		Doc: "maximum total request weight an offline schedule serves (equals cardinality when unweighted)",
		Evaluate: func(tr *core.Trace, workers int) int {
			profit, _ := offline.Solve(tr, offline.Profit, workers)
			return profit
		},
	})
	Register(Component{
		Kind: KindObjective, Name: "min_latency",
		Doc: "minimum total service latency among maximum-cardinality offline schedules",
		Evaluate: func(tr *core.Trace, workers int) int {
			lat, _ := offline.Solve(tr, offline.MinLatency, workers)
			return lat
		},
	})
	Register(Component{
		Kind: KindObjective, Name: "eds_greedy",
		Doc: "greedy earliest-deadline service count (optimal for single-choice traces, Observation 3.1)",
		Evaluate: func(tr *core.Trace, workers int) int {
			return offline.EarliestDeadlineSchedule(tr)
		},
	})
}
