// Videoserver: the paper's motivating application. A distributed video
// server stores a catalog of titles, each replicated on two disks (random
// duplicated assignment); client requests follow a Zipf popularity curve, so
// hot titles hammer the same disk pair. Every request must be served within
// d rounds or the stream misses its deadline.
//
// The example compares all strategies on the same workload and shows how the
// two-choice scheduling strategies exploit the replicas, where EDF's
// independent copies waste capacity.
package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"reqsched"
)

func main() { run(os.Stdout) }

// run writes the comparison to w. Rows are ordered by requests served, ties
// by strategy name, so the output does not depend on map iteration order.
func run(w io.Writer) {
	cfg := reqsched.WorkloadConfig{
		N:      12,  // disks
		D:      6,   // rounds before a frame deadline is missed
		Rounds: 300, // busy period length
		Rate:   13,  // slightly over nominal capacity
		Seed:   42,
	}
	const (
		catalog = 200 // titles
		zipfS   = 1.3 // popularity skew
	)
	tr := reqsched.VideoServer(cfg, catalog, zipfS)
	fmt.Fprintln(w, "video-on-demand workload:", reqsched.SummarizeTrace(tr))

	opt := reqsched.Optimum(tr)
	optLatency, _ := reqsched.Solve(tr, reqsched.MinLatency, 0)
	fmt.Fprintf(w, "offline optimum serves %d of %d requests (best possible mean latency %.2f)\n\n",
		opt, tr.NumRequests(), float64(optLatency)/float64(opt))

	type row struct {
		name            string
		served, expired int
		ratio, latency  float64
	}
	var rows []row
	for name, s := range reqsched.Strategies() {
		res := reqsched.Run(s, tr)
		rows = append(rows, row{
			name:    name,
			served:  res.Fulfilled,
			expired: res.Expired,
			ratio:   float64(opt) / float64(res.Fulfilled),
			latency: res.MeanLatency(),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].served != rows[j].served {
			return rows[i].served > rows[j].served
		}
		return rows[i].name < rows[j].name
	})

	fmt.Fprintf(w, "%-20s %8s %8s %8s %9s\n", "strategy", "served", "missed", "OPT/ALG", "latency")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %8d %8d %8.4f %9.2f\n", r.name, r.served, r.expired, r.ratio, r.latency)
	}

	fmt.Fprintln(w, "\nNote how the rescheduling strategies (A_balance, A_eager) stay closest")
	fmt.Fprintln(w, "to the optimum, the fix-family loses to its irrevocable placements, and")
	fmt.Fprintln(w, "independent-copies EDF wastes disk rounds on already-served requests.")
}
