// Priorities: the weighted extension. Requests carry weights (say, paying
// tiers of a video service) and the objective becomes maximizing the total
// weight served before deadlines. The example compares:
//
//   - the unweighted strategies (weight-blind: they maximize request count);
//   - A_fix_w (admits heaviest arrivals first, never reschedules);
//   - A_eager_w (recomputes the maximum-weight matching every round,
//     displacing light requests when heavy ones arrive);
//
// against the offline maximum profit.
package main

import (
	"fmt"
	"io"
	"os"

	"reqsched"
)

func main() { run(os.Stdout) }

// run writes the example's report to w.
func run(w io.Writer) {
	cfg := reqsched.WorkloadConfig{N: 8, D: 4, Rounds: 200, Rate: 12, Seed: 5}
	const maxW = 10
	tr := reqsched.Weighted(cfg, maxW)

	totalWeight := 0
	for _, r := range tr.Requests() {
		totalWeight += r.Weight()
	}
	maxProfit, _ := reqsched.Solve(tr, reqsched.Profit, 0)
	fmt.Fprintln(w, "weighted workload:", reqsched.SummarizeTrace(tr))
	fmt.Fprintf(w, "total offered weight %d; offline max profit %d; plain optimum (count) %d\n\n",
		totalWeight, maxProfit, reqsched.Optimum(tr))

	fmt.Fprintf(w, "%-15s %8s %10s %12s\n", "strategy", "served", "weight", "profit ratio")
	for _, s := range []reqsched.Strategy{
		reqsched.NewABalance(), // weight-blind rescheduler
		reqsched.NewAFix(),     // weight-blind, no rescheduling
		reqsched.NewFixWeighted(),
		reqsched.NewEagerWeighted(),
	} {
		res := reqsched.Run(s, tr)
		fmt.Fprintf(w, "%-15s %8d %10d %12.4f\n",
			res.Strategy, res.Fulfilled, res.WeightFulfilled,
			float64(maxProfit)/float64(res.WeightFulfilled))
	}

	fmt.Fprintln(w, "\nThe weight-blind strategies serve more requests but less value under")
	fmt.Fprintln(w, "overload; the weighted rescheduler trades light requests for heavy ones")
	fmt.Fprintln(w, "and tracks the offline profit closely.")
}
