package strategies

import (
	"testing"

	"reqsched/internal/core"
	"reqsched/internal/matching"
	"reqsched/internal/policy"
	"reqsched/internal/workload"
)

// TestRoundSearchWork pins the exact search effort of the matching
// strategies on BenchmarkEngine's workload: the augmenting searches their
// rounds start and the vertices those searches mark. The counts are a
// property of the code, not of the host, so an algorithmic regression fails
// here on any machine; an intended change updates the pins in the same diff.
func TestRoundSearchWork(t *testing.T) {
	tr := workload.Uniform(workload.Config{N: 16, D: 6, Rounds: 300, Rate: 18, Seed: 11})
	for _, c := range []struct {
		name   string
		router func() (policy.Router, *roundScratch)
		served int
		want   matching.Work
	}{
		{"A_fix_balance", func() (policy.Router, *roundScratch) {
			r := NewFixBalanceRouter()
			return r, &r.sc
		}, 4871, matching.Work{Searches: 27720, Marks: 1994}},
		{"A_eager", func() (policy.Router, *roundScratch) {
			r := NewEagerRouter()
			return r, &r.sc
		}, 4872, matching.Work{Searches: 29227, Marks: 15615}},
		{"A_balance", func() (policy.Router, *roundScratch) {
			r := NewBalanceRouter()
			return r, &r.sc
		}, 4873, matching.Work{Searches: 29225, Marks: 17075}},
	} {
		r, sc := c.router()
		res := core.Run(canonical(c.name, r), tr)
		got := sc.ms.Work()
		t.Logf("%s: served %d, %+v", c.name, res.Fulfilled, got)
		if res.Fulfilled != c.served || got != c.want {
			t.Errorf("%s: served %d, work %+v; want %d, %+v", c.name, res.Fulfilled, got, c.served, c.want)
		}
	}
}
