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

// TestRoundAllocsFlatInRounds pins that the matching strategies' rounds
// allocate nothing once their scratch has grown: a run four times longer
// on BenchmarkEngine's workload counts exactly the same allocations. Scratch
// that grew to exactly the requested length reallocated whenever the window
// grew by one more request, which adds allocations with every extra round.
func TestRoundAllocsFlatInRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow with -short")
	}
	trace := func(rounds int) *core.Trace {
		return workload.Uniform(workload.Config{N: 16, D: 6, Rounds: rounds, Rate: 18, Seed: 11})
	}
	short, long := trace(300), trace(1200)
	for _, c := range []struct {
		name   string
		router func() policy.Router
	}{
		{"A_fix_balance", func() policy.Router { return NewFixBalanceRouter() }},
		{"A_eager", func() policy.Router { return NewEagerRouter() }},
		{"A_balance", func() policy.Router { return NewBalanceRouter() }},
	} {
		allocs := func(tr *core.Trace) float64 {
			return testing.AllocsPerRun(3, func() { core.Run(canonical(c.name, c.router()), tr) })
		}
		a300, a1200 := allocs(short), allocs(long)
		t.Logf("%s: %v allocs per run at 300 rounds, %v at 1200", c.name, a300, a1200)
		if a1200 != a300 {
			t.Errorf("%s: %v allocs at 1200 rounds vs %v at 300: the rounds allocate", c.name, a1200, a300)
		}
	}
}
