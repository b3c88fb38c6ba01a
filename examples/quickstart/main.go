// Quickstart: build a tiny request trace by hand, run the paper's best
// simple strategy (A_balance) on it, and compare with the offline optimum.
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
	// Four disks, every request must be served within 3 rounds of arrival.
	b := reqsched.NewBuilder(4, 3)

	// Round 0: six requests. Each names two alternative disks in
	// preference order.
	b.Add(0, 0, 1)
	b.Add(0, 0, 1)
	b.Add(0, 2, 3)
	b.Add(0, 2, 3)
	b.Add(0, 1, 2)
	b.Add(0, 1, 2)

	// Round 2: a burst hammering the pair (0, 1).
	for i := 0; i < 5; i++ {
		b.Add(2, 0, 1)
	}

	tr := b.Build()
	fmt.Fprintln(w, "trace:", reqsched.SummarizeTrace(tr))

	res := reqsched.Run(reqsched.NewABalance(), tr)
	opt := reqsched.Optimum(tr)

	fmt.Fprintf(w, "A_balance served %d of %d requests (offline optimum %d)\n",
		res.Fulfilled, tr.NumRequests(), opt)
	fmt.Fprintf(w, "mean service latency: %.2f rounds\n", res.MeanLatency())
	for _, f := range res.Log {
		fmt.Fprintf(w, "  round %d: disk %d serves request %d (arrived %d)\n",
			f.Round, f.Res, f.Req.ID, f.Req.Arrive)
	}

	// Every schedule can be validated independently.
	if err := reqsched.ValidateLog(tr, res.Log); err != nil {
		panic(err)
	}
	fmt.Fprintln(w, "schedule validated: one request per disk per round, all within deadline")
}
