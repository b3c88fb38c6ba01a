package ratio

import (
	"context"
	"fmt"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/stats"
)

// Summary aggregates a strategy's empirical competitive ratio over a family
// of workloads (one per seed): mean, deviation and extremes of OPT/ALG, plus
// service-rate statistics. Used by cmd/schedsim -seeds and the examples to
// report numbers that do not hinge on a single seed.
type Summary struct {
	Strategy string
	Seeds    int
	Ratio    stats.Acc
	Served   stats.Acc
	Expired  stats.Acc
	// Starved counts seeds where the strategy fulfilled nothing although the
	// offline optimum was positive. Such runs have an infinite empirical
	// ratio and cannot be folded into the mean, so they are counted
	// explicitly instead of being silently skipped (which would bias the
	// mean optimistically).
	Starved int
}

func (s *Summary) String() string {
	// A summary with no finite-ratio samples (every seed starved) would
	// otherwise print the accumulator's zero values — "ratio 0.0000±0.0000
	// (max 0.0000)" — which reads as a perfect score instead of a total loss.
	if s.Ratio.N() == 0 {
		return fmt.Sprintf("%s over %d seeds: ratio n/a (no finite samples), served %.1f±%.1f, starved %d",
			s.Strategy, s.Seeds, s.Served.Mean(), s.Served.Std(), s.Starved)
	}
	return fmt.Sprintf("%s over %d seeds: ratio %.4f±%.4f (max %.4f), served %.1f±%.1f, starved %d",
		s.Strategy, s.Seeds, s.Ratio.Mean(), s.Ratio.Std(), s.Ratio.Max(),
		s.Served.Mean(), s.Served.Std(), s.Starved)
}

// SummarizeParallel measures mk() against the traces produced by gen(seed)
// for seeds 0..seeds-1 on the worker pool (workers <= 0: GOMAXPROCS). The
// per-seed simulations and offline optima run concurrently, while the
// summary is folded strictly in seed order, so the result is bit-identical
// for every worker count. A panicking seed surfaces as a *JobPanic naming it
// (the completed seeds are still folded and Seeds records only them).
func SummarizeParallel(mk func() core.Strategy, gen func(seed int64) *core.Trace, seeds, workers int) (*Summary, error) {
	var sum Summary
	sum.Strategy = mk().Name()
	err := RunStreamCtx(context.Background(), func(i int) (Job, bool) {
		if i >= seeds {
			return Job{}, false
		}
		seed := int64(i)
		return Job{
			Name:     fmt.Sprintf("seed %d", seed),
			Build:    func() adversary.Construction { return adversary.Construction{Trace: gen(seed)} },
			Strategy: mk,
		}, true
	}, workers, func(i int, m Measurement) {
		sum.Seeds++
		if m.ALG > 0 {
			sum.Ratio.Add(float64(m.OPT) / float64(m.ALG))
		} else if m.OPT == 0 {
			sum.Ratio.Add(1)
		} else {
			// Infinite ratio: the strategy starved while OPT served
			// something. Excluded from the mean, surfaced in Starved.
			sum.Starved++
		}
		sum.Served.Add(float64(m.ALG))
		sum.Expired.Add(float64(m.Expired))
	})
	return &sum, err
}
