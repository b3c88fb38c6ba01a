// Streaming adaptive measurement. RunAdaptive materializes the adversary's
// whole trace before the offline optimum is taken — fine for the paper-sized
// constructions, horizon-proportional memory for long adaptive runs. The
// streaming path instead feeds the engine's generated requests, as they are
// produced, into an offline.IncrementalOpt sealed at every clean segment cut,
// so peak memory is the open segment, not the run.
package ratio

import (
	"reqsched/internal/core"
	"reqsched/internal/offline"
)

// RunAdaptiveStream runs s against an adaptive source and computes its
// competitive ratio incrementally: every request the adversary generates is
// added to one maintained maximum matching (offline.IncrementalOpt, the
// solver behind serve's rolling ratio), sealed at core.Segmenter's clean
// cuts. At a clean cut every earlier request is already served or expired,
// so the engine no longer references the earlier rows and the garbage
// collector reclaims them — the full trace never exists in memory, and no
// segment sub-trace is ever built. It returns the measurement (identical OPT,
// ALG and Expired to MeasureAdaptive on the same source) and the number of
// segments the run decomposed into.
func RunAdaptiveStream(s core.Strategy, src core.AdaptiveSource) (Measurement, int) {
	inc := offline.NewIncrementalOpt(src.N())
	cut := core.NewSegmenter(core.UnitModel())
	opt, nsegs := 0, 0
	seal := func() {
		opt += inc.Seal()
		nsegs++
	}
	res, _ := core.RunAdaptiveObserved(s, src, func(t int, arrivals []core.Request) bool {
		for i := range arrivals {
			a := &arrivals[i]
			if _, ok := cut.Cut(a.Arrive); ok {
				seal()
			}
			inc.Add(a.Arrive, a.D, a.Alts)
			cut.Add(a.Deadline())
		}
		return true
	})
	if _, ok := cut.Close(); ok {
		seal()
	}
	return Measurement{
		Strategy: s.Name(),
		Input:    "adaptive",
		N:        src.N(),
		D:        src.D(),
		OPT:      opt,
		ALG:      res.Fulfilled,
		Expired:  res.Expired,
	}, nsegs
}
