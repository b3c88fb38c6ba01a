package core_test

import (
	"testing"

	"reqsched"
	"reqsched/internal/core"
	"reqsched/internal/workload"
)

// TestCopyInvariance pins that the ten BenchmarkEngine strategies schedule k
// idle-separated copies of an input exactly as they schedule one copy,
// shifted in time: copy c's fulfillments are the single-copy log with request
// IDs offset by c times the request count and rounds by c times the copy
// span. With that, k copies give k·OPT and k·ALG, so a bound OPT ≤ c·ALG + a
// that holds for every input holds with a = 0, which is why the proven-bound
// tests in internal/strategies run without slack. random_fit and ranking are
// left out: they draw from one seeded generator whose state carries from copy
// to copy, so a later copy sees different random choices.
func TestCopyInvariance(t *testing.T) {
	const k = 3
	traces := map[string]*core.Trace{
		"uniform":  workload.Uniform(workload.Config{N: 6, D: 3, Rounds: 40, Rate: 7, Seed: 5}),
		"zipf":     workload.Zipf(workload.Config{N: 8, D: 4, Rounds: 30, Rate: 10, Seed: 5}, 1.5),
		"bursty":   workload.Bursty(workload.Config{N: 5, D: 2, Rounds: 40, Rate: 2, Seed: 5}, 3, 5, 12),
		"overload": workload.Uniform(workload.Config{N: 3, D: 2, Rounds: 25, Rate: 8, Seed: 5}),
	}
	for tname, tr := range traces {
		span := tr.Horizon() + 2 // repeat's copy offset under the unit model
		long := repeat(tr, k)
		m := tr.NumRequests()
		for _, name := range []string{
			"A_fix", "A_current", "A_fix_balance", "A_eager", "A_balance",
			"EDF", "first_fit", "A_local_fix", "A_local_eager", "A_local_eager_wide",
		} {
			once := core.Run(reqsched.StrategyByName(name), tr)
			copies := core.Run(reqsched.StrategyByName(name), long)
			if len(copies.Log) != k*len(once.Log) {
				t.Errorf("%s on %s: %d served on %d copies, want %d", name, tname, len(copies.Log), k, k*len(once.Log))
				continue
			}
			for i, f := range copies.Log {
				c, w := i/len(once.Log), once.Log[i%len(once.Log)]
				if f.Req.ID != w.Req.ID+c*m || f.Res != w.Res || f.Round != w.Round+c*span {
					t.Errorf("%s on %s: copy %d serves request %d on %d at round %d, one copy request %d on %d at round %d",
						name, tname, c, f.Req.ID, f.Res, f.Round, w.Req.ID, w.Res, w.Round)
					break
				}
			}
		}
	}
}
