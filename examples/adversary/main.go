// Adversary: watch a lower-bound construction at work. The Theorem 2.1
// adversary repeatedly baits A_fix into placing bridge requests on the
// resources it is about to flood; because A_fix never reschedules, the flood
// then finds its resources occupied. A_eager, allowed to reschedule, serves
// everything.
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
	const d, phases = 4, 10
	c := reqsched.AdversaryFix(d, phases)
	fmt.Fprintf(w, "construction %s: n=%d d=%d, proven forced ratio %.4f\n",
		c.Name, c.N, c.D, c.Bound)
	fmt.Fprintln(w, "trace:", reqsched.SummarizeTrace(c.Trace))
	fmt.Fprintln(w)

	for _, s := range []reqsched.Strategy{
		reqsched.NewAFix(),
		reqsched.NewAFixBalance(),
		reqsched.NewAEager(),
		reqsched.NewABalance(),
	} {
		m := reqsched.MeasureConstruction(c, s)
		fmt.Fprintf(w, "%-15s OPT=%4d ALG=%4d ratio=%.4f\n", m.Strategy, m.OPT, m.ALG, m.Ratio())
	}

	fmt.Fprintln(w, "\nPer-phase anatomy (d=4): the adversary injects 2d-2=6 bridge requests")
	fmt.Fprintln(w, "listing the soon-to-be-flooded pair first, then a block of 2d=8; A_fix")
	fmt.Fprintln(w, "pins the bridges onto the flooded pair and serves only 8 of 14, while")
	fmt.Fprintln(w, "rescheduling strategies move the bridges aside and serve all 14.")

	// The same idea as an API user would write it: craft one phase by hand.
	b := reqsched.NewBuilder(4, d)
	b.Block(0, 1, 2) // flood resources 1,2 for d rounds
	for i := 0; i < d-1; i++ {
		b.Add(d-1, 1, 0) // bridge: prefers the flooded resource 1
		b.Add(d-1, 2, 3)
	}
	b.Block(d, 1, 2) // second flood
	tr := b.Build()
	fix := reqsched.Run(reqsched.NewAFix(), tr)
	eager := reqsched.Run(reqsched.NewAEager(), tr)
	fmt.Fprintf(w, "\nhand-built phase: OPT=%d  A_fix=%d  A_eager=%d\n",
		reqsched.Optimum(tr), fix.Fulfilled, eager.Fulfilled)

	fmt.Fprintln(w, "\narrivals:")
	fmt.Fprint(w, reqsched.RenderArrivals(tr, 0, -1))
	fmt.Fprintln(w, "\nA_fix schedule (note resources 0 and 3 idle after round", d, "):")
	fmt.Fprint(w, reqsched.RenderGrid(tr, fix.Log, 0, -1))
	fmt.Fprintln(w, "\nA_fix losses:")
	fmt.Fprint(w, reqsched.RenderLosses(tr, fix.Log))
	fmt.Fprintln(w, "\nA_eager schedule (bridges rescheduled onto 0 and 3):")
	fmt.Fprint(w, reqsched.RenderGrid(tr, eager.Log, 0, -1))
}
