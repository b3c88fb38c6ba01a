// Localcluster: the distributed setting of Section 3.2. Clients cannot see
// the global request picture; they negotiate with disks through fixed-size
// messages, at most d per disk per communication round (latest deadline
// first). The example contrasts the two local protocols:
//
//   - A_local_fix: 2 communication rounds per scheduling round, ratio 2;
//   - A_local_eager: up to 9 communication rounds, ratio 5/3 — it pulls
//     scheduled requests forward into idle slots and brokers exchanges for
//     rejected ones;
//
// and shows their communication bills next to the global (centralized)
// A_balance, which needs full information every round.
package main

import (
	"fmt"
	"io"
	"os"

	"reqsched"
	"reqsched/internal/local"
	"reqsched/internal/render"
)

func main() { run(os.Stdout) }

// run writes the example's report to w.
func run(w io.Writer) {
	cfg := reqsched.WorkloadConfig{N: 10, D: 5, Rounds: 200, Rate: 11, Seed: 7}
	tr := reqsched.Bursty(cfg, 4, 8, 30) // correlated bursts: the hard case
	fmt.Fprintln(w, "bursty cluster workload:", reqsched.SummarizeTrace(tr))
	opt := reqsched.Optimum(tr)
	fmt.Fprintf(w, "offline optimum: %d of %d\n\n", opt, tr.NumRequests())

	fmt.Fprintf(w, "%-20s %8s %9s %11s %10s %14s\n",
		"strategy", "served", "OPT/ALG", "commRounds", "messages", "msgs/request")
	for _, s := range []reqsched.Strategy{
		reqsched.NewALocalFix(),
		reqsched.NewALocalEager(),
		reqsched.NewALocalEagerWide(),
		reqsched.NewABalance(), // centralized reference
	} {
		res := reqsched.Run(s, tr)
		perReq := 0.0
		if tr.NumRequests() > 0 {
			perReq = float64(res.Messages) / float64(tr.NumRequests())
		}
		fmt.Fprintf(w, "%-20s %8d %9.4f %11d %10d %14.2f\n",
			res.Strategy, res.Fulfilled, float64(opt)/float64(res.Fulfilled),
			res.CommRounds, res.Messages, perReq)
	}

	fmt.Fprintln(w, "\nThe centralized strategy shows zero communication because the model")
	fmt.Fprintln(w, "grants it the whole request picture for free; the local protocols pay")
	fmt.Fprintln(w, "per message and still stay within their proven ratios (2 and 5/3).")

	// Protocol transcript of the first scheduling rounds: watch the mailbox
	// contention during a burst.
	withTranscript := local.NewFix()
	withTranscript.EnableTranscript()
	reqsched.Run(withTranscript, tr)
	fmt.Fprintln(w, "\nA_local_fix communication transcript (first 10 communication rounds):")
	rounds := withTranscript.Transcript()
	if len(rounds) > 10 {
		rounds = rounds[:10]
	}
	fmt.Fprint(w, render.CommRounds(rounds, 24))
}
