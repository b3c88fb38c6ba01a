// Adaptive measurement. An adaptive adversary's trace depends on the
// strategy, so its optimum cannot be solved ahead of the run. Rather than
// materialize the whole trace (core.RunAdaptive) and solve it afterwards, the
// one adaptive measurement path feeds the engine's generated requests, as
// they are produced, into an offline.IncrementalOpt sealed at every clean
// segment cut, so peak memory is the open segment, not the run.
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
// collector reclaims them — the full trace never exists in memory. It
// returns the measurement (OPT equals offline.Optimum of the trace
// core.RunAdaptive generates from the same source) and the number of
// segments the run decomposed into.
func RunAdaptiveStream(s core.Strategy, src core.AdaptiveSource) (Measurement, int) {
	inc := offline.NewIncrementalOpt(src.N())
	opt, nsegs := 0, 0
	res := core.RunAdaptiveObserved(s, src, func(t int, arrivals []core.Request) {
		for i := range arrivals {
			a := &arrivals[i]
			if v, sealed := inc.Add(a.Arrive, a.D, a.Alts); sealed {
				opt += v
				nsegs++
			}
		}
	})
	if inc.Count() > 0 {
		nsegs++
	}
	opt += inc.Seal()
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
