// Twochoices: the load-balancing principle the whole paper rests on
// (Section 1.1). First the classic balls-into-bins measurement — giving each
// ball two random bin choices collapses the maximum load from
// Θ(log n / log log n) to Θ(log log n) [ABKU94] — then the same effect in
// the deadline scheduler: the identical arrival pattern with one versus two
// alternative disks per request, served by A_balance.
package main

import (
	"fmt"
	"io"
	"math"
	"os"

	"reqsched"
	"reqsched/internal/ballsbins"
)

func main() { run(os.Stdout) }

// run writes the example's report to w.
func run(w io.Writer) {
	// Part 1: balls into bins, m = n.
	const n = 100000
	fmt.Fprintf(w, "balls-into-bins, %d balls into %d bins (5-seed average):\n", n, n)
	for _, c := range []int{1, 2, 3} {
		sum := 0
		for seed := int64(1); seed <= 5; seed++ {
			sum += ballsbins.MaxLoad(ballsbins.Greedy(n, n, c, seed))
		}
		fmt.Fprintf(w, "  c=%d choices: max load %.1f\n", c, float64(sum)/5)
	}
	fmt.Fprintf(w, "  (theory: c=1 ~ ln n/ln ln n = %.1f; c=2 ~ ln ln n/ln 2 = %.1f)\n\n",
		math.Log(n)/math.Log(math.Log(n)), math.Log(math.Log(n))/math.Log(2))

	// Part 1b: the parallel collision protocol — the communication-round
	// model behind Section 3.2's local strategies.
	res := ballsbins.Collision(n, n, 2, 4, 40, 1)
	fmt.Fprintf(w, "collision protocol (2 choices, threshold 4): all %d balls placed in %d rounds\n\n",
		n-res.Unplaced, res.Rounds)

	// Part 2: the same principle in the deadline scheduler. One arrival
	// pattern, rendered once with a single alternative per request and once
	// with two.
	cfg := reqsched.WorkloadConfig{N: 10, D: 4, Rounds: 200, Rate: 10, Seed: 7}
	one := reqsched.CChoice(cfg, 1)
	two := reqsched.CChoice(cfg, 2)

	for _, tc := range []struct {
		name string
		tr   *reqsched.Trace
	}{{"one alternative ", one}, {"two alternatives", two}} {
		res := reqsched.Run(reqsched.NewABalance(), tc.tr)
		opt := reqsched.Optimum(tc.tr)
		fmt.Fprintf(w, "scheduler, %s: served %4d of %4d (offline optimum %4d, loss %.1f%%)\n",
			tc.name, res.Fulfilled, tc.tr.NumRequests(), opt,
			100*float64(tc.tr.NumRequests()-res.Fulfilled)/float64(tc.tr.NumRequests()))
	}
	fmt.Fprintln(w, "\nThe second choice absorbs the arrival randomness: most of the")
	fmt.Fprintln(w, "single-choice losses are hot-spot collisions a second disk removes —")
	fmt.Fprintln(w, "the reason the paper's model gives every request two alternatives.")
}
