package ratio

import (
	"testing"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/strategies"
)

func TestRunAdaptiveStreamMatchesMeasureAdaptive(t *testing.T) {
	// The streamed pipeline must compute the identical measurement to the
	// materialize-then-solve path on the Theorem 2.6 adversary: the strategy
	// and adversary are deterministic, so both runs generate the same trace,
	// and the segmented OPT sums to the monolithic optimum.
	for _, tc := range []struct{ d, cycles int }{{3, 3}, {3, 5}, {6, 2}} {
		for _, mk := range []func() core.Strategy{
			func() core.Strategy { return strategies.NewFix() },
			func() core.Strategy { return strategies.NewEager() },
			func() core.Strategy { return strategies.NewEDF() },
		} {
			want := MeasureAdaptive(mk(), adversary.Universal(tc.d, tc.cycles).Source)
			got, nsegs := RunAdaptiveStream(mk(), adversary.Universal(tc.d, tc.cycles).Source)
			if nsegs < 1 {
				t.Fatalf("d=%d cycles=%d %s: no segments", tc.d, tc.cycles, want.Strategy)
			}
			if got.OPT != want.OPT || got.ALG != want.ALG || got.Expired != want.Expired {
				t.Fatalf("d=%d cycles=%d %s: stream OPT/ALG/Expired %d/%d/%d, post-hoc %d/%d/%d",
					tc.d, tc.cycles, want.Strategy,
					got.OPT, got.ALG, got.Expired, want.OPT, want.ALG, want.Expired)
			}
		}
	}
}

// gappedSource is an adaptive source with silent stretches longer than the
// deadline window between bursts, so the streaming pipeline must cut one
// segment per burst.
type gappedSource struct {
	n, d, bursts int
	period       int
}

func newGappedSource(n, d, bursts int) *gappedSource {
	return &gappedSource{n: n, d: d, bursts: bursts, period: 2*d + 3}
}

func (g *gappedSource) N() int { return g.n }
func (g *gappedSource) D() int { return g.d }

func (g *gappedSource) Next(t int, isServed func(id int) bool) [][]int {
	if t%g.period != 0 {
		return nil
	}
	// A small two-choice clump per burst; more requests than slots on the
	// first resource pair so some must expire under any strategy.
	var specs [][]int
	for i := 0; i < g.d+2; i++ {
		specs = append(specs, []int{i % g.n, (i + 1) % g.n})
	}
	return specs
}

func (g *gappedSource) Done(t int) bool { return t >= g.bursts*g.period }

func TestRunAdaptiveStreamSegmentsGappedSource(t *testing.T) {
	const bursts = 7
	src := newGappedSource(3, 2, bursts)
	got, nsegs := RunAdaptiveStream(strategies.NewEager(), src)
	if nsegs != bursts {
		t.Fatalf("expected %d segments (one per burst), got %d", bursts, nsegs)
	}
	want := MeasureAdaptive(strategies.NewEager(), newGappedSource(3, 2, bursts))
	if got.OPT != want.OPT || got.ALG != want.ALG || got.Expired != want.Expired {
		t.Fatalf("stream OPT/ALG/Expired %d/%d/%d, post-hoc %d/%d/%d",
			got.OPT, got.ALG, got.Expired, want.OPT, want.ALG, want.Expired)
	}
	if want.OPT == 0 || want.ALG == 0 {
		t.Fatalf("degenerate gapped measurement: %+v", want)
	}
}
