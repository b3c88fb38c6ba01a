package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"reqsched/internal/core"
	"reqsched/internal/registry"
	"reqsched/internal/workload"
)

// replayTraces are the inputs TestRunAdaptiveReplayMatchesRun replays: a
// small hand-built trace, the BenchmarkEngine workload, and a bursty trace
// whose silent stretches outlast the window. The adaptive interface injects
// with the default window only, so every request carries D == tr.D.
func replayTraces() map[string]*core.Trace {
	b := core.NewBuilder(4, 3)
	pattern := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 3}}
	for t := 0; t < 20; t++ {
		for i := 0; i <= t%4; i++ {
			p := pattern[(t+i)%len(pattern)]
			b.Add(t, p[0], p[1])
		}
	}
	return map[string]*core.Trace{
		"pattern": b.Build(),
		"uniform": workload.Uniform(workload.Config{N: 16, D: 6, Rounds: 300, Rate: 18, Seed: 11}),
		"bursty":  workload.Bursty(workload.Config{N: 6, D: 3, Rounds: 120, Seed: 4}, 3, 7, 12),
	}
}

// TestRunAdaptiveReplayMatchesRun replays fixed traces through the adaptive
// entry point: for every strategy BenchmarkEngine times, global and local,
// RunAdaptive must return exactly core.Run's Result and regenerate the input.
func TestRunAdaptiveReplayMatchesRun(t *testing.T) {
	names := []string{
		"A_fix", "A_current", "A_fix_balance", "A_eager", "A_balance",
		"EDF", "first_fit", "A_local_fix", "A_local_eager", "A_local_eager_wide",
	}
	expired := 0
	for label, tr := range replayTraces() {
		for _, name := range names {
			mk := func() core.Strategy {
				s, err := registry.NewStrategySpec(name)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			id := fmt.Sprintf("%s on %s", name, label)
			want := core.Run(mk(), tr)
			got, genTr := core.RunAdaptive(mk(), &core.ReplaySource{Tr: tr})
			if want.Fulfilled == 0 {
				t.Fatalf("%s: nothing served", id)
			}
			expired += want.Expired
			if !reflect.DeepEqual(logKeys(got.Log), logKeys(want.Log)) {
				t.Fatalf("%s: adaptive log differs from Run's", id)
			}
			got.Log, want.Log = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: adaptive result %+v, Run %+v", id, got, want)
			}
			if genTr.NumRequests() != tr.NumRequests() || genTr.Horizon() != tr.Horizon() {
				t.Fatalf("%s: regenerated trace has %d requests / horizon %d, want %d / %d",
					id, genTr.NumRequests(), genTr.Horizon(), tr.NumRequests(), tr.Horizon())
			}
			for r := range tr.Arrivals {
				for i, q := range tr.Arrivals[r] {
					g := genTr.Arrivals[r][i]
					if g.ID != q.ID || g.Arrive != q.Arrive || g.D != q.D || !reflect.DeepEqual(g.Alts, q.Alts) {
						t.Fatalf("%s: regenerated request %v, want %v", id, g, q)
					}
				}
			}
		}
	}
	if expired == 0 {
		t.Fatal("no run let a request expire: the replay does not exercise expiry")
	}
}

type logKey struct{ id, res, round int }

// logKeys projects a fulfillment log onto (request ID, resource, round): the
// two runs build distinct *Request values for the same requests.
func logKeys(log []core.Fulfillment) []logKey {
	out := make([]logKey, len(log))
	for i, f := range log {
		out[i] = logKey{f.Req.ID, f.Res, f.Round}
	}
	return out
}
